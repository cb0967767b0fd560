package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6})
	if got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot did not panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestScaleFillClone(t *testing.T) {
	x := []float64{1, 2}
	c := Clone(x)
	Scale(3, x)
	if x[0] != 3 || x[1] != 6 {
		t.Fatalf("Scale got %v", x)
	}
	if c[0] != 1 || c[1] != 2 {
		t.Fatalf("Clone aliased the input: %v", c)
	}
	Fill(x, -1)
	if x[0] != -1 || x[1] != -1 {
		t.Fatalf("Fill got %v", x)
	}
}

func TestMaxIdx(t *testing.T) {
	cases := []struct {
		x    []float64
		want int
	}{
		{nil, -1},
		{[]float64{5}, 0},
		{[]float64{1, 3, 2}, 1},
		{[]float64{2, 2, 2}, 0}, // ties resolve to earliest
		{[]float64{-3, -1, -2}, 1},
	}
	for _, c := range cases {
		if got := MaxIdx(c.x); got != c.want {
			t.Errorf("MaxIdx(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp broken")
	}
	if ClampInt(7, 1, 3) != 3 || ClampInt(-7, 1, 3) != 1 || ClampInt(2, 1, 3) != 2 {
		t.Fatal("ClampInt broken")
	}
}

func TestSigmoidStability(t *testing.T) {
	if v := Sigmoid(1000); v != 1 {
		t.Errorf("Sigmoid(1000) = %v, want 1", v)
	}
	if v := Sigmoid(-1000); v != 0 {
		t.Errorf("Sigmoid(-1000) = %v, want 0", v)
	}
	if v := Sigmoid(0); math.Abs(v-0.5) > 1e-15 {
		t.Errorf("Sigmoid(0) = %v, want 0.5", v)
	}
}

func TestSigmoidSymmetry(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		return math.Abs(Sigmoid(x)+Sigmoid(-x)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogSigmoidMatchesLogOfSigmoid(t *testing.T) {
	for _, x := range []float64{-30, -5, -1, 0, 1, 5, 30} {
		want := math.Log(Sigmoid(x))
		if got := LogSigmoid(x); math.Abs(got-want) > 1e-9 {
			t.Errorf("LogSigmoid(%v) = %v, want %v", x, got, want)
		}
	}
	// Far tail: log(Sigmoid) underflows to -Inf but LogSigmoid stays finite.
	if got := LogSigmoid(-1000); math.Abs(got+1000) > 1e-9 {
		t.Errorf("LogSigmoid(-1000) = %v, want -1000", got)
	}
}

func TestAxpyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Axpy(1, []float64{1}, []float64{1, 2})
}

func TestSumAndClone(t *testing.T) {
	if Sum([]float64{1, 2, 3.5}) != 6.5 {
		t.Fatal("Sum broken")
	}
	if Sum(nil) != 0 {
		t.Fatal("Sum of nil")
	}
}

// BenchmarkMatVec times a 96 x 24 mat-vec, the LSTM's Wh·h at the default
// width: row by row through Dot (what a Dense row outside a packed block
// takes) and packed, on both kernel paths.
func BenchmarkMatVec(b *testing.B) {
	const rows, n = 96, 24
	w, x, dst := make([]float64, rows*n), make([]float64, n), make([]float64, rows)
	for i := range w {
		w[i] = float64(i%7) - 3
	}
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	b.Run("dot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := range dst {
				dst[r] = Dot(w[r*n:(r+1)*n], x)
			}
		}
	})
	wp := PackRows4(nil, w, n)
	saved := vector
	defer func() { vector = saved }()
	for _, v := range []bool{true, false} {
		if v && !saved {
			continue
		}
		vector = v
		b.Run("packed/"+map[bool]string{true: "vector", false: "scalar"}[v], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatVecPacked(dst, wp, x, nil, nil)
			}
		})
	}
}
