package mathx

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(x); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if s := Std(x); math.Abs(s-2) > 1e-12 {
		t.Fatalf("Std = %v, want 2", s)
	}
	if Mean(nil) != 0 || Std(nil) != 0 || Std([]float64{1}) != 0 {
		t.Fatal("degenerate inputs must yield 0")
	}
}

func TestCeilQuantileExactIndices(t *testing.T) {
	x := []float64{30, 10, 20, 50, 40} // sorted: 10 20 30 40 50
	cases := []struct {
		alpha float64
		want  float64
	}{
		{0.0, 10}, {0.1, 10}, {0.2, 10}, {0.21, 20}, {0.4, 20},
		{0.5, 30}, {0.8, 40}, {0.81, 50}, {1.0, 50}, {1.5, 50}, {-1, 10},
	}
	for _, c := range cases {
		if got := CeilQuantile(x, c.alpha); got != c.want {
			t.Errorf("CeilQuantile(alpha=%v) = %v, want %v", c.alpha, got, c.want)
		}
	}
}

func TestCeilQuantileDoesNotModifyInput(t *testing.T) {
	x := []float64{3, 1, 2}
	CeilQuantile(x, 0.5)
	if x[0] != 3 || x[1] != 1 || x[2] != 2 {
		t.Fatalf("input was modified: %v", x)
	}
}

func TestCeilQuantilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty input")
		}
	}()
	CeilQuantile(nil, 0.5)
}

// The defining property of the conformal quantile: at least ceil(alpha*n)
// of the sample lie at or below the returned value.
func TestCeilQuantileCoverageProperty(t *testing.T) {
	rng := NewRNG(7)
	f := func(seedRaw int64) bool {
		g := rng.Split(seedRaw)
		n := 1 + g.Intn(200)
		x := make([]float64, n)
		for i := range x {
			x[i] = g.Normal(0, 10)
		}
		alpha := g.Float64()
		q := CeilQuantile(x, alpha)
		atOrBelow := 0
		for _, v := range x {
			if v <= q {
				atOrBelow++
			}
		}
		k := int(math.Ceil(alpha * float64(n)))
		k = ClampInt(k, 1, n)
		return atOrBelow >= k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCeilQuantileMonotoneInAlpha(t *testing.T) {
	rng := NewRNG(11)
	x := make([]float64, 101)
	for i := range x {
		x[i] = rng.Normal(0, 1)
	}
	prev := math.Inf(-1)
	for a := 0.0; a <= 1.0; a += 0.01 {
		q := CeilQuantile(x, a)
		if q < prev {
			t.Fatalf("quantile decreased at alpha=%v: %v < %v", a, q, prev)
		}
		prev = q
	}
}

// TestStdUsesPopulationDivisor pins the n (population) divisor against a
// silent switch to the sample n-1: for this data the two differ by far
// more than float error (2.0 vs ~2.138), and Cox covariate
// standardization plus the generator calibration both assume the
// population form (see the Std doc comment for the full rationale).
func TestStdUsesPopulationDivisor(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var ss float64
	for _, v := range x {
		d := v - Mean(x)
		ss += d * d
	}
	population := math.Sqrt(ss / float64(len(x))) // divisor n
	sample := math.Sqrt(ss / float64(len(x)-1))   // divisor n-1
	if got := Std(x); math.Abs(got-population) > 1e-12 {
		t.Fatalf("Std = %v, want population std %v", got, population)
	}
	if math.Abs(Std(x)-sample) < 0.1 {
		t.Fatalf("Std = %v indistinguishable from sample std %v; pin is vacuous", Std(x), sample)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 {
		t.Fatalf("Summarize = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func TestCeilQuantileAgreesWithSortedIndex(t *testing.T) {
	g := NewRNG(3)
	x := make([]float64, 37)
	for i := range x {
		x[i] = g.Float64()
	}
	sorted := Clone(x)
	sort.Float64s(sorted)
	for _, a := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		k := ClampInt(int(math.Ceil(a*37)), 1, 37)
		if got := CeilQuantile(x, a); got != sorted[k-1] {
			t.Errorf("alpha=%v: got %v want %v", a, got, sorted[k-1])
		}
	}
}
