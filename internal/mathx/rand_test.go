package mathx

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	// Children with different labels from identically seeded parents differ;
	// same label gives the same child stream.
	p1, p2 := NewRNG(1), NewRNG(1)
	c1, c2 := p1.Split(10), p2.Split(10)
	if c1.Float64() != c2.Float64() {
		t.Fatal("same label split must match")
	}
	p3 := NewRNG(1)
	c3 := p3.Split(11)
	same := true
	c4 := NewRNG(1).Split(10)
	for i := 0; i < 8; i++ {
		if c3.Float64() != c4.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different labels should give different streams")
	}
}

func TestGeometricMean(t *testing.T) {
	g := NewRNG(6)
	p := 0.25
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(g.Geometric(p))
	}
	mean := sum / float64(n)
	want := (1 - p) / p
	if math.Abs(mean-want) > 0.1*want {
		t.Errorf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
	}
	if g.Geometric(1) != 0 {
		t.Error("Geometric(1) must be 0")
	}
}

func TestGeometricPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p<=0")
		}
	}()
	NewRNG(1).Geometric(0)
}

func TestTruncNormalStaysInRange(t *testing.T) {
	g := NewRNG(8)
	for i := 0; i < 5000; i++ {
		v := g.TruncNormal(50, 30, 10, 90)
		if v < 10 || v > 90 {
			t.Fatalf("TruncNormal out of range: %v", v)
		}
	}
	// Far-tail range falls back to clamped mean.
	if v := g.TruncNormal(0, 0.001, 100, 200); v != 100 {
		t.Fatalf("tail fallback = %v, want 100", v)
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(9)
	rate := 0.02
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += g.Exponential(rate)
	}
	mean := sum / float64(n)
	if math.Abs(mean-1/rate) > 0.05/rate {
		t.Errorf("Exponential mean = %v, want ~%v", mean, 1/rate)
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(10)
	n := 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := g.Normal(3, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean-3) > 0.1 || math.Abs(variance-4) > 0.3 {
		t.Errorf("Normal moments mean=%v var=%v", mean, variance)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	g := NewRNG(12)
	hits := 0
	for i := 0; i < 10000; i++ {
		if g.Bernoulli(0.3) {
			hits++
		}
	}
	freq := float64(hits) / 10000
	if math.Abs(freq-0.3) > 0.02 {
		t.Errorf("Bernoulli(0.3) freq = %v", freq)
	}
}

func TestPermIsPermutation(t *testing.T) {
	p := NewRNG(13).Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm invalid: %v", p)
		}
		seen[v] = true
	}
}

func TestLognormalMeanStdMoments(t *testing.T) {
	g := NewRNG(14)
	mean, std := 97.2, 107.5
	n := 40000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := g.LognormalMeanStd(mean, std)
		if v <= 0 {
			t.Fatal("lognormal sample must be positive")
		}
		sum += v
		sumsq += v * v
	}
	m := sum / float64(n)
	s := math.Sqrt(sumsq/float64(n) - m*m)
	if math.Abs(m-mean) > 0.05*mean {
		t.Errorf("lognormal mean = %v, want ~%v", m, mean)
	}
	if math.Abs(s-std) > 0.15*std {
		t.Errorf("lognormal std = %v, want ~%v", s, std)
	}
}

func TestLognormalPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).LognormalMeanStd(0, 1)
}

func TestShuffleIsPermutation(t *testing.T) {
	g := NewRNG(17)
	x := []int{0, 1, 2, 3, 4, 5, 6, 7}
	g.Shuffle(len(x), func(i, j int) { x[i], x[j] = x[j], x[i] })
	seen := make([]bool, len(x))
	for _, v := range x {
		if seen[v] {
			t.Fatalf("Shuffle duplicated %d", v)
		}
		seen[v] = true
	}
}
