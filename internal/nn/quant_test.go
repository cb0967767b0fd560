package nn

import (
	"math"
	"testing"

	"eventhit/internal/mathx"
)

// TestSigmoidLUTExhaustive checks the pinned integer-domain bound at EVERY
// representable input: all Q12 values inside the LUT span plus a margin
// beyond it where the clamp takes over.
func TestSigmoidLUTExhaustive(t *testing.T) {
	worst := 0.0
	for a := int32(lutLo - 4*ActOne); a <= lutHi+4*ActOne; a++ {
		got := DequantGate(SigmoidQ(a))
		want := mathx.Sigmoid(DequantAct(a))
		if d := math.Abs(got - want); d > worst {
			worst = d
		}
	}
	if worst > SigmoidQTol {
		t.Fatalf("sigmoid LUT worst error %.3g exceeds pinned bound %.3g", worst, SigmoidQTol)
	}
	t.Logf("sigmoid LUT worst integer-domain error %.3g (bound %.3g)", worst, SigmoidQTol)
}

// TestTanhLUTExhaustive is the tanh twin of TestSigmoidLUTExhaustive.
func TestTanhLUTExhaustive(t *testing.T) {
	worst := 0.0
	for a := int32(lutLo - 4*ActOne); a <= lutHi+4*ActOne; a++ {
		got := DequantGate(TanhQ(a))
		want := math.Tanh(DequantAct(a))
		if d := math.Abs(got - want); d > worst {
			worst = d
		}
	}
	if worst > TanhQTol {
		t.Fatalf("tanh LUT worst error %.3g exceeds pinned bound %.3g", worst, TanhQTol)
	}
	t.Logf("tanh LUT worst integer-domain error %.3g (bound %.3g)", worst, TanhQTol)
}

// TestLUTMonotone verifies both LUTs are non-decreasing over the whole
// integer domain (linear interpolation of monotone samples plus clamped
// tails must stay monotone; the rounding steps cannot break it by more
// than flatness).
func TestLUTMonotone(t *testing.T) {
	prevS, prevT := SigmoidQ(lutLo-10), TanhQ(lutLo-10)
	for a := int32(lutLo - 9); a <= lutHi+10; a++ {
		s, th := SigmoidQ(a), TanhQ(a)
		if s < prevS {
			t.Fatalf("SigmoidQ not monotone at a=%d: %d < %d", a, s, prevS)
		}
		if th < prevT {
			t.Fatalf("TanhQ not monotone at a=%d: %d < %d", a, th, prevT)
		}
		prevS, prevT = s, th
	}
}

// TestLUTEdges pins range, symmetry and saturation behavior.
func TestLUTEdges(t *testing.T) {
	if got := SigmoidQ(0); got != GateOne/2 {
		t.Fatalf("SigmoidQ(0) = %d, want %d", got, GateOne/2)
	}
	if got := TanhQ(0); got != 0 {
		t.Fatalf("TanhQ(0) = %d, want 0", got)
	}
	for _, a := range []int32{math.MinInt32, lutLo, lutHi, math.MaxInt32} {
		if s := SigmoidQ(a); s < 0 || s > GateOne {
			t.Fatalf("SigmoidQ(%d) = %d out of [0, %d]", a, s, GateOne)
		}
		if th := TanhQ(a); th < -GateOne || th > GateOne {
			t.Fatalf("TanhQ(%d) = %d out of [-%d, %d]", a, th, GateOne, GateOne)
		}
	}
	if SigmoidQ(math.MaxInt32) != SigmoidQ(lutHi) || SigmoidQ(math.MinInt32) != SigmoidQ(lutLo) {
		t.Fatalf("sigmoid saturation does not clamp to the end samples")
	}
	// tanh is odd; the tables are symmetric by construction.
	for _, a := range []int32{1, 100, 5000, 40000} {
		if TanhQ(a) != -TanhQ(-a) {
			t.Fatalf("TanhQ not odd at %d: %d vs %d", a, TanhQ(a), TanhQ(-a))
		}
	}
}

// FuzzSigmoidTanhLUT checks the float-domain pinned bounds on arbitrary
// inputs (quantization error included).
func FuzzSigmoidTanhLUT(f *testing.F) {
	for _, x := range []float64{0, 1e-9, -1e-9, 0.5, -0.5, 3.777, -7.999, 8, -8, 15.99, 16.01, -300, 1e18, math.Inf(1)} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		if math.IsNaN(x) {
			t.Skip()
		}
		// Clamp to the range QuantAct can represent without int32 overflow.
		if x > 5e5 {
			x = 5e5
		} else if x < -5e5 {
			x = -5e5
		}
		if d := math.Abs(SigmoidLUT(x) - mathx.Sigmoid(x)); d > SigmoidLUTTol {
			t.Fatalf("sigmoid LUT error %.3g at x=%v exceeds %.3g", d, x, SigmoidLUTTol)
		}
		if d := math.Abs(TanhLUT(x) - math.Tanh(x)); d > TanhLUTTol {
			t.Fatalf("tanh LUT error %.3g at x=%v exceeds %.3g", d, x, TanhLUTTol)
		}
	})
}

// TestQuantDenseMatchesFloat bounds the quantized layer against its float
// twin on random inputs. Per-output error stacks input quantization
// (in * 2^-13 * |W|max), weight quantization (in * |x|max * step/2) and the
// two rounding shifts; for the sizes and unit-scale inputs used here a
// 2e-3 ceiling is comfortable and fails loudly on any scale bug.
func TestQuantDenseMatchesFloat(t *testing.T) {
	g := mathx.NewRNG(7)
	d := NewDense("t.fc", 48, 33, g)
	q := QuantizeDense(d)
	x := make([]float64, 48)
	xq := make([]int32, 48)
	for trial := 0; trial < 200; trial++ {
		for i := range x {
			x[i] = g.Float64()*2 - 1
			xq[i] = QuantAct(x[i])
		}
		want := forward(d, x)
		got := q.ForwardQ(xq)
		for o := range want {
			if d := math.Abs(DequantAct(got[o]) - want[o]); d > 2e-3 {
				t.Fatalf("trial %d output %d: quant %.6f vs float %.6f (|Δ|=%.2g)",
					trial, o, DequantAct(got[o]), want[o], d)
			}
		}
	}
}

// TestQuantLSTMMatchesFloat bounds the quantized recurrence against the
// float LSTM over full windows. Errors compound across timesteps through
// the cell state, so the ceiling is looser than the dense one; 0.02 on a
// [-1,1] hidden state catches any format or shift mistake immediately.
func TestQuantLSTMMatchesFloat(t *testing.T) {
	g := mathx.NewRNG(11)
	l := NewLSTM("t.lstm", 9, 24, g)
	q := QuantizeLSTM(l)
	for trial := 0; trial < 20; trial++ {
		T := 5 + int(g.Float64()*45)
		xs := make([][]float64, T)
		for t2 := range xs {
			row := make([]float64, 9)
			for i := range row {
				row[i] = g.Float64() // covariates live in [0,1]
			}
			xs[t2] = row
		}
		want := l.Forward(&LSTMTape{}, xs, l.Pack())
		got := q.Forward(xs)
		for j := range want {
			if d := math.Abs(got[j] - want[j]); d > 0.02 {
				t.Fatalf("trial %d h[%d]: quant %.6f vs float %.6f (|Δ|=%.3g)",
					trial, j, got[j], want[j], d)
			}
		}
	}
}

// TestQuantWeightsRoundTrip checks the per-tensor power-of-two scale:
// every weight must dequantize back within half a quantization step, and
// degenerate tensors must not panic.
func TestQuantWeightsRoundTrip(t *testing.T) {
	g := mathx.NewRNG(3)
	w := make([]float64, 257)
	for i := range w {
		w[i] = (g.Float64()*2 - 1) * 3
	}
	q, f := quantWeights(w)
	step := 1 / float64(int64(1)<<f)
	for i := range w {
		if d := math.Abs(float64(q[i])*step - w[i]); d > step/2+1e-12 {
			t.Fatalf("weight %d: dequant %.6g vs %.6g exceeds half step %.3g", i, float64(q[i])*step, w[i], step/2)
		}
	}
	if _, f0 := quantWeights(make([]float64, 8)); f0 != 24 {
		t.Fatalf("all-zero tensor scale = %d, want 24", f0)
	}
	// A huge weight must clamp the scale at its floor, not overflow int16.
	qBig, fBig := quantWeights([]float64{40000})
	if fBig != 1 || qBig[0] != math.MaxInt16 {
		t.Fatalf("oversized weight quantized to %d at scale %d", qBig[0], fBig)
	}
}

// TestQuantForwardAllocs pins the quantized hot path at zero allocations
// per forward.
func TestQuantForwardAllocs(t *testing.T) {
	g := mathx.NewRNG(5)
	l := NewLSTM("t.lstm", 6, 16, g)
	ql := QuantizeLSTM(l)
	d := NewDense("t.fc", 16, 12, g)
	qd := QuantizeDense(d)
	xs := make([][]float64, 25)
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = g.Float64()
		}
	}
	xq := make([]int32, 16)
	for name, fn := range map[string]func(){
		"QuantLSTM.ForwardQ":  func() { ql.ForwardQ(xs) },
		"QuantDense.ForwardQ": func() { qd.ForwardQ(xq) },
	} {
		if n := testing.AllocsPerRun(50, fn); n != 0 {
			t.Errorf("%s allocates %.1f per run, want 0", name, n)
		}
	}
}

// streamRows builds F pseudo-frame covariate rows in [0,1].
func streamRows(g *mathx.RNG, frames, width int) [][]float64 {
	xs := make([][]float64, frames)
	for t := range xs {
		row := make([]float64, width)
		for i := range row {
			row[i] = g.Float64()
		}
		xs[t] = row
	}
	return xs
}

// TestQuantLSTMFrameCacheSlidingWindow drives ForwardQFrames over stride-1
// sliding windows (with a mid-stream seek) and requires bit-identical
// hidden states to the uncached ForwardQ — the cache may only change
// wall-clock, never results. Hidden widths 24 and 10 cover the 8-row main
// loop and the 4-row tail of the fused kernels.
func TestQuantLSTMFrameCacheSlidingWindow(t *testing.T) {
	for _, hidden := range []int{24, 10} {
		g := mathx.NewRNG(int64(31 + hidden))
		l := NewLSTM("t.lstm", 7, hidden, g)
		qc := QuantizeLSTM(l) // cached
		qr := QuantizeLSTM(l) // reference, no cache
		qc.EnableFrameCache(2 * 12)
		const W = 12
		xs := streamRows(g, 160, 7)
		anchors := make([]int, 0, 80)
		for a := W - 1; a < 60; a++ {
			anchors = append(anchors, a)
		}
		for a := 120; a < 159; a++ { // seek far past the ring
			anchors = append(anchors, a)
		}
		for _, a := range anchors {
			win := xs[a-W+1 : a+1]
			got := qc.ForwardQFrames(win, a-W+1)
			want := qr.ForwardQ(win)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("hidden %d anchor %d h[%d]: cached %d vs uncached %d",
						hidden, a, j, got[j], want[j])
				}
			}
		}
	}
}

// TestQuantLSTMFrameCacheVerification presents different covariates under a
// frame number the ring already holds. A key-only cache would silently
// return the stale projection; the content check must force a recompute and
// keep the result bit-identical to the uncached path.
func TestQuantLSTMFrameCacheVerification(t *testing.T) {
	g := mathx.NewRNG(41)
	l := NewLSTM("t.lstm", 5, 16, g)
	qc := QuantizeLSTM(l)
	qr := QuantizeLSTM(l)
	qc.EnableFrameCache(8)
	const W = 6
	xs := streamRows(g, 32, 5)
	qc.ForwardQFrames(xs[0:W], 0) // warm frames 0..5
	// Same frame numbers, different rows.
	ys := streamRows(g, W, 5)
	got := qc.ForwardQFrames(ys, 0)
	want := qr.ForwardQ(ys)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("h[%d]: cached %d vs uncached %d after content change", j, got[j], want[j])
		}
	}
	// Slot collision: frame 0 and frame 8 share slot 0 in an 8-slot ring.
	got = qc.ForwardQFrames(xs[8:8+W], 8)
	want = qr.ForwardQ(xs[8 : 8+W])
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("h[%d]: cached %d vs uncached %d after slot collision", j, got[j], want[j])
		}
	}
	// Disabling the ring must fall back to the plain path.
	qc.EnableFrameCache(0)
	got = qc.ForwardQFrames(xs[1:1+W], 1)
	want = qr.ForwardQ(xs[1 : 1+W])
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("h[%d]: disabled-cache %d vs uncached %d", j, got[j], want[j])
		}
	}
}

// TestQuantLSTMFrameCacheAllocs pins ForwardQFrames at zero allocations per
// call — the ring is sized once at EnableFrameCache.
func TestQuantLSTMFrameCacheAllocs(t *testing.T) {
	g := mathx.NewRNG(43)
	l := NewLSTM("t.lstm", 6, 16, g)
	q := QuantizeLSTM(l)
	q.EnableFrameCache(24)
	xs := streamRows(g, 64, 6)
	a := 11
	if n := testing.AllocsPerRun(50, func() {
		q.ForwardQFrames(xs[a:a+12], a)
		a = (a + 1) % 50
	}); n != 0 {
		t.Errorf("ForwardQFrames allocates %.1f per run, want 0", n)
	}
}
