package nn

import (
	"fmt"
	"math"
	"testing"
	_ "unsafe" // go:linkname

	"eventhit/internal/mathx"
)

// vectorKernels is mathx's unexported switch between its AVX2 kernels and
// their scalar twins.
//
//go:linkname vectorKernels eventhit/internal/mathx.vector
var vectorKernels bool

// onPaths runs f on every kernel path this machine has: the vector path if
// mathx selected it, then the forced-scalar path.
func onPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := vectorKernels
	defer func() { vectorKernels = saved }()
	for _, v := range []bool{true, false} {
		if v && !saved {
			continue
		}
		vectorKernels = v
		t.Run(fmt.Sprintf("vector=%v", v), f)
	}
}

func randSeq(g *mathx.RNG, t, d int) [][]float64 {
	xs := make([][]float64, t)
	for i := range xs {
		xs[i] = make([]float64, d)
		for j := range xs[i] {
			xs[i][j] = g.Float64()*2 - 1
		}
	}
	return xs
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v (bits differ)", what, i, got[i], want[i])
		}
	}
}

// blockWidths straddle the four-row block of mathx.MatVec: remainders 1, 3,
// 1 (after one block), 0 and 1 (after eight).
var blockWidths = []int{1, 3, 5, 24, 33}

// TestDenseMatchesRowAtATime pins ApplyRows to the arithmetic
// the layer had before the mat-vec was row-blocked: one mathx.Dot per row,
// then the bias.
func TestDenseMatchesRowAtATime(t *testing.T) {
	g := mathx.NewRNG(11)
	for _, out := range blockWidths {
		d := NewDense("d", 7, out, g.Split(int64(out)))
		for i := range d.b.W {
			d.b.W[i] = g.Float64() - 0.5
		}
		x := randSeq(g, 1, 7)[0]
		want := make([]float64, out)
		for o := range want {
			want[o] = mathx.Dot(d.w.W[o*7:(o+1)*7], x) + d.b.W[o]
		}
		sameBits(t, "ApplyRows", forward(d, x), want)
		for lo := 0; lo < out; lo++ {
			for hi := lo; hi <= out; hi++ {
				y := make([]float64, hi-lo)
				d.ApplyRows(y, x, lo)
				sameBits(t, "ApplyRows", y, want[lo:hi])
			}
		}
	}
}

// lstmWidths are blockWidths plus the cascade rungs' hidden widths (6 and
// 12) and a single four-row block (1 unit); with 4H gate rows, H = 1, 3, 5
// and 33 leave len%4 tails in the H-wide vector cell steps.
var lstmWidths = []int{1, 3, 4, 5, 6, 12, 24, 33}

// TestLSTMMatchesRowAtATime replays the recurrence with one mathx.Dot per
// gate row and the scalar mathx.Sigmoid and math.Tanh per unit — the
// arithmetic before the mat-vec was blocked and the cell vectorized — and
// requires Forward, Infer and InferProjected over the rows' Project-ions to
// agree with it bit for bit, on every kernel path.
func TestLSTMMatchesRowAtATime(t *testing.T) {
	g := mathx.NewRNG(12)
	const in, T = 5, 9
	for _, H := range lstmWidths {
		l := NewLSTM("l", in, H, g.Split(int64(H)))
		xs := randSeq(g, T, in)
		h, c, a := make([]float64, H), make([]float64, H), make([]float64, 4*H)
		for _, x := range xs {
			for j := range a {
				a[j] = mathx.Dot(l.wx.W[j*in:(j+1)*in], x) + mathx.Dot(l.wh.W[j*H:(j+1)*H], h) + l.b.W[j]
			}
			for j := 0; j < H; j++ {
				i, f := mathx.Sigmoid(a[j]), mathx.Sigmoid(a[H+j])
				gg, o := math.Tanh(a[2*H+j]), mathx.Sigmoid(a[3*H+j])
				c[j] = f*c[j] + i*gg
				h[j] = o * math.Tanh(c[j])
			}
		}
		p := l.Pack()
		axs := make([][]float64, T)
		for i, x := range xs {
			axs[i] = make([]float64, 4*H)
			l.Project(axs[i], x, p)
		}
		onPaths(t, func(t *testing.T) {
			sameBits(t, "Forward", l.Forward(&LSTMTape{}, xs, p), h)
			sameBits(t, "Infer", l.Infer(xs, p, make([]float64, l.InferLen())), h)
			sameBits(t, "InferProjected", l.InferProjected(axs, p, make([]float64, l.InferLen())), h)
		})
	}
}

// TestLSTMVectorMatchesScalar: Infer and InferProjected on the vector path
// equal the forced-scalar path bit for bit at the serving window length,
// on a dirty buffer, with inputs scaled so that some gate pre-activations
// leave the vector exp's range and take the scalar fallback.
func TestLSTMVectorMatchesScalar(t *testing.T) {
	if !vectorKernels {
		t.Skip("mathx did not select its vector kernels on this machine")
	}
	defer func() { vectorKernels = true }()
	g := mathx.NewRNG(15)
	const in, T = 12, 25
	for _, H := range lstmWidths {
		for _, scale := range []float64{1, 400} {
			l := NewLSTM("l", in, H, g.Split(int64(H)))
			p := l.Pack()
			xs := randSeq(g, T, in)
			axs := make([][]float64, T)
			for i, x := range xs {
				mathx.Scale(scale, x)
				axs[i] = make([]float64, 4*H)
				l.Project(axs[i], x, p)
			}
			run := func(vector bool) (h, hp []float64) {
				vectorKernels = vector
				buf := make([]float64, l.InferLen())
				mathx.Fill(buf, math.NaN())
				h = append([]float64(nil), l.Infer(xs, p, buf)...)
				return h, l.InferProjected(axs, p, buf)
			}
			h, hp := run(true)
			hs, hps := run(false)
			what := fmt.Sprintf("H=%d scale=%v", H, scale)
			sameBits(t, what+" Infer", h, hs)
			sameBits(t, what+" InferProjected", hp, hps)
		}
	}
}

// TestQuantDenseRowsMatchFull: any row range of the fixed-point layer holds
// the integers the full pass computes.
func TestQuantDenseRowsMatchFull(t *testing.T) {
	g := mathx.NewRNG(14)
	const in, out = 6, 21
	q := QuantizeDense(NewDense("d", in, out, g))
	x := make([]int32, in)
	for i := range x {
		x[i] = QuantAct(g.Float64()*2 - 1)
	}
	want := append([]int32(nil), q.ForwardQ(x)...)
	for lo := 0; lo < out; lo++ {
		for hi := lo; hi <= out; hi++ {
			got := q.ForwardQRows(x, lo, hi)
			for i, v := range got {
				if v != want[lo+i] {
					t.Fatalf("rows [%d,%d): row %d = %d, want %d", lo, hi, lo+i, v, want[lo+i])
				}
			}
		}
	}
}
