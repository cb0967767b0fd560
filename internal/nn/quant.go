package nn

import (
	"fmt"
	"math"
)

// Quantized inference twins of Dense and LSTM. Both carry int16 weights
// with a per-tensor power-of-two scale, compute dot products in int64,
// evaluate every sigmoid/tanh through the Q14 LUTs of lut.go, and reuse
// all scratch so a forward pass allocates nothing. They are inference
// only: no caches for backprop, no gradient state. Unlike the float layers'
// Infer/ApplyRows they keep their activations in the layer, so one
// goroutine at a time may run a quantized layer.

// QuantDense is the int16 inference twin of a Dense layer. Activations in
// and out are Q12 int32.
type QuantDense struct {
	in, out int
	w       []int16
	wf      uint    // weight fractional bits: w[i] == round(W[i] * 2^wf)
	b       []int32 // Q12
	y       []int32 // output scratch
}

// QuantizeDense quantizes a float Dense layer.
func QuantizeDense(d *Dense) *QuantDense {
	w, wf := quantWeights(d.w.W)
	q := &QuantDense{
		in: d.in, out: d.out,
		w: w, wf: wf,
		b: make([]int32, d.out),
		y: make([]int32, d.out),
	}
	for i, v := range d.b.W {
		q.b[i] = QuantAct(v)
	}
	return q
}

// ForwardQ computes W*x + b over Q12 activations. The returned slice is
// reused by the next ForwardQ.
func (q *QuantDense) ForwardQ(x []int32) []int32 { return q.ForwardQRows(x, 0, q.out) }

// ForwardQRows is ForwardQ for output rows [lo, hi) only; the returned
// slice holds those rows and is reused by the next forward. Rows are
// processed eight (then four) at a time so each loaded input element feeds
// several accumulators — about 2x faster than row-at-a-time on this scalar
// code path; integer sums are exact, so the grouping never shows in a
// result.
func (q *QuantDense) ForwardQRows(x []int32, lo, hi int) []int32 {
	if len(x) != q.in {
		panic(fmt.Sprintf("nn: QuantDense input %d, want %d", len(x), q.in))
	}
	in, y := q.in, q.y
	o := lo
	for ; o+8 <= hi; o += 8 {
		r0 := q.w[o*in : o*in+in]
		r1 := q.w[(o+1)*in : (o+1)*in+in]
		r2 := q.w[(o+2)*in : (o+2)*in+in]
		r3 := q.w[(o+3)*in : (o+3)*in+in]
		r4 := q.w[(o+4)*in : (o+4)*in+in]
		r5 := q.w[(o+5)*in : (o+5)*in+in]
		r6 := q.w[(o+6)*in : (o+6)*in+in]
		r7 := q.w[(o+7)*in : (o+7)*in+in]
		var a0, a1, a2, a3, a4, a5, a6, a7 int64
		for k, xv := range x {
			xk := int64(xv)
			a0 += int64(r0[k]) * xk
			a1 += int64(r1[k]) * xk
			a2 += int64(r2[k]) * xk
			a3 += int64(r3[k]) * xk
			a4 += int64(r4[k]) * xk
			a5 += int64(r5[k]) * xk
			a6 += int64(r6[k]) * xk
			a7 += int64(r7[k]) * xk
		}
		y[o] = roundShift(a0, q.wf) + q.b[o]
		y[o+1] = roundShift(a1, q.wf) + q.b[o+1]
		y[o+2] = roundShift(a2, q.wf) + q.b[o+2]
		y[o+3] = roundShift(a3, q.wf) + q.b[o+3]
		y[o+4] = roundShift(a4, q.wf) + q.b[o+4]
		y[o+5] = roundShift(a5, q.wf) + q.b[o+5]
		y[o+6] = roundShift(a6, q.wf) + q.b[o+6]
		y[o+7] = roundShift(a7, q.wf) + q.b[o+7]
	}
	for ; o+4 <= hi; o += 4 {
		r0 := q.w[o*in : o*in+in]
		r1 := q.w[(o+1)*in : (o+1)*in+in]
		r2 := q.w[(o+2)*in : (o+2)*in+in]
		r3 := q.w[(o+3)*in : (o+3)*in+in]
		var a0, a1, a2, a3 int64
		for k, xv := range x {
			xk := int64(xv)
			a0 += int64(r0[k]) * xk
			a1 += int64(r1[k]) * xk
			a2 += int64(r2[k]) * xk
			a3 += int64(r3[k]) * xk
		}
		y[o] = roundShift(a0, q.wf) + q.b[o]
		y[o+1] = roundShift(a1, q.wf) + q.b[o+1]
		y[o+2] = roundShift(a2, q.wf) + q.b[o+2]
		y[o+3] = roundShift(a3, q.wf) + q.b[o+3]
	}
	for ; o < hi; o++ {
		row := q.w[o*in : o*in+in]
		var acc int64
		for k, w := range row {
			acc += int64(w) * int64(x[k])
		}
		y[o] = roundShift(acc, q.wf) + q.b[o]
	}
	return y[lo:hi]
}

// QuantLSTM is the int16 inference twin of an LSTM. Inputs are quantized
// to Q12 int16 per step (clamping at the int16 range, +/-8 in real value —
// covariates here live in [0, 1] plus small noise, far inside it); hidden
// and cell state are Q12; gates come from the Q14 LUTs.
type QuantLSTM struct {
	in, hidden int
	wx, wh     []int16
	wxf, whf   uint
	b          []int32 // Q12

	// scratch
	x     []int16   // quantized input row
	h     []int16   // hidden state, Q12
	c     []int32   // cell state, Q12
	a     []int32   // gate pre-activations, Q12
	ax    []int32   // input-projection scratch for the uncached path
	hOut  []int32   // widened final hidden state
	hOutF []float64 // dequantized view for Forward

	// Frame-keyed input-projection ring (EnableFrameCache): slot s caches
	// roundShift(Wx . x_t, wxf) for frame t together with the quantized
	// row it was computed from. In the stride-1 sliding-window regime
	// consecutive windows share all but one frame, so ForwardQFrames skips
	// the Wx dot products for every shared frame. A hit requires BOTH the
	// frame number and the quantized row to match, so a caller presenting
	// different covariates under a reused frame number just misses — the
	// cache can change wall-clock, never results.
	pslots  int
	pframes []int
	px      []int16 // pslots * in quantized rows (verification)
	pa      []int32 // pslots * 4*hidden cached projections
}

// QuantizeLSTM quantizes a float LSTM.
func QuantizeLSTM(l *LSTM) *QuantLSTM {
	wx, wxf := quantWeights(l.wx.W)
	wh, whf := quantWeights(l.wh.W)
	q := &QuantLSTM{
		in: l.in, hidden: l.hidden,
		wx: wx, wh: wh, wxf: wxf, whf: whf,
		b:     make([]int32, 4*l.hidden),
		x:     make([]int16, l.in),
		h:     make([]int16, l.hidden),
		c:     make([]int32, l.hidden),
		a:     make([]int32, 4*l.hidden),
		ax:    make([]int32, 4*l.hidden),
		hOut:  make([]int32, l.hidden),
		hOutF: make([]float64, l.hidden),
	}
	for i, v := range l.b.W {
		q.b[i] = QuantAct(v)
	}
	return q
}

// EnableFrameCache sizes the frame-keyed input-projection ring (0 disables
// it, the default). Callers that present stride-1 sliding windows via
// ForwardQFrames should size it to cover at least one window; results are
// identical at any size.
func (q *QuantLSTM) EnableFrameCache(slots int) {
	if slots <= 0 {
		q.pslots, q.pframes, q.px, q.pa = 0, nil, nil, nil
		return
	}
	q.pslots = slots
	q.pframes = make([]int, slots)
	for i := range q.pframes {
		q.pframes[i] = math.MinInt
	}
	q.px = make([]int16, slots*q.in)
	q.pa = make([]int32, slots*4*q.hidden)
}

// ForwardQ processes the float sequence and returns the final hidden state
// as Q12 values. The returned slice is reused by the next forward.
func (q *QuantLSTM) ForwardQ(xs [][]float64) []int32 {
	return q.forwardQ(xs, 0, false)
}

// ForwardQFrames is ForwardQ for a window whose rows are consecutive
// stream frames starting at frame0 (row i is frame frame0+i). With the
// frame cache enabled, input projections of frames seen by earlier calls
// are reused instead of recomputed; the result is bit-identical to
// ForwardQ (cached entries hold the exact integers the miss path
// produces, and hits verify the quantized row).
func (q *QuantLSTM) ForwardQFrames(xs [][]float64, frame0 int) []int32 {
	return q.forwardQ(xs, frame0, q.pslots > 0)
}

// projectInto fills ax[j] = roundShift(Wx_row_j . x, wxf) for all 4*H gate
// rows, eight rows fused per pass (with a four-row tail; len(ax) = 4*H is
// always divisible by 4).
func (q *QuantLSTM) projectInto(ax []int32, x []int16) {
	In := q.in
	j := 0
	for ; j+8 <= len(ax); j += 8 {
		x0 := q.wx[j*In : j*In+In]
		x1 := q.wx[(j+1)*In : (j+1)*In+In]
		x2 := q.wx[(j+2)*In : (j+2)*In+In]
		x3 := q.wx[(j+3)*In : (j+3)*In+In]
		x4 := q.wx[(j+4)*In : (j+4)*In+In]
		x5 := q.wx[(j+5)*In : (j+5)*In+In]
		x6 := q.wx[(j+6)*In : (j+6)*In+In]
		x7 := q.wx[(j+7)*In : (j+7)*In+In]
		var a0, a1, a2, a3, a4, a5, a6, a7 int64
		for k, xv := range x {
			xk := int64(xv)
			a0 += int64(x0[k]) * xk
			a1 += int64(x1[k]) * xk
			a2 += int64(x2[k]) * xk
			a3 += int64(x3[k]) * xk
			a4 += int64(x4[k]) * xk
			a5 += int64(x5[k]) * xk
			a6 += int64(x6[k]) * xk
			a7 += int64(x7[k]) * xk
		}
		ax[j] = roundShift(a0, q.wxf)
		ax[j+1] = roundShift(a1, q.wxf)
		ax[j+2] = roundShift(a2, q.wxf)
		ax[j+3] = roundShift(a3, q.wxf)
		ax[j+4] = roundShift(a4, q.wxf)
		ax[j+5] = roundShift(a5, q.wxf)
		ax[j+6] = roundShift(a6, q.wxf)
		ax[j+7] = roundShift(a7, q.wxf)
	}
	for ; j < len(ax); j += 4 {
		x0 := q.wx[j*In : j*In+In]
		x1 := q.wx[(j+1)*In : (j+1)*In+In]
		x2 := q.wx[(j+2)*In : (j+2)*In+In]
		x3 := q.wx[(j+3)*In : (j+3)*In+In]
		var a0, a1, a2, a3 int64
		for k, xv := range x {
			xk := int64(xv)
			a0 += int64(x0[k]) * xk
			a1 += int64(x1[k]) * xk
			a2 += int64(x2[k]) * xk
			a3 += int64(x3[k]) * xk
		}
		ax[j] = roundShift(a0, q.wxf)
		ax[j+1] = roundShift(a1, q.wxf)
		ax[j+2] = roundShift(a2, q.wxf)
		ax[j+3] = roundShift(a3, q.wxf)
	}
}

func eq16(a, b []int16) bool {
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

func (q *QuantLSTM) forwardQ(xs [][]float64, frame0 int, useCache bool) []int32 {
	if len(xs) == 0 {
		panic("nn: QuantLSTM forward on empty sequence")
	}
	In, H := q.in, q.hidden
	x, h, c, a := q.x, q.h, q.c, q.a
	for i := range h {
		h[i] = 0
	}
	for i := range c {
		c[i] = 0
	}
	for step, row := range xs {
		if len(row) != In {
			panic(fmt.Sprintf("nn: QuantLSTM input width %d, want %d", len(row), In))
		}
		for k, v := range row {
			x[k] = quantAct16(v)
		}
		// Input projection: cached per frame when the ring is enabled,
		// recomputed otherwise.
		ax := q.ax
		if useCache {
			frame := frame0 + step
			slot := frame % q.pslots
			if slot < 0 {
				slot += q.pslots
			}
			px := q.px[slot*In : slot*In+In]
			pa := q.pa[slot*4*H : (slot+1)*4*H]
			if q.pframes[slot] != frame || !eq16(px, x) {
				q.projectInto(pa, x)
				copy(px, x)
				q.pframes[slot] = frame
			}
			ax = pa
		} else {
			q.projectInto(ax, x)
		}
		// Recurrent part and gate pre-activations, eight rows fused per
		// pass: each loaded hidden element feeds eight accumulators, which
		// cuts the dot-product cost well below row-at-a-time (the rows
		// share h). 4*H is always divisible by 4, so after the 8-wide main
		// loop at most one 4-row group remains.
		j := 0
		for ; j+8 <= 4*H; j += 8 {
			h0 := q.wh[j*H : j*H+H]
			h1 := q.wh[(j+1)*H : (j+1)*H+H]
			h2 := q.wh[(j+2)*H : (j+2)*H+H]
			h3 := q.wh[(j+3)*H : (j+3)*H+H]
			h4 := q.wh[(j+4)*H : (j+4)*H+H]
			h5 := q.wh[(j+5)*H : (j+5)*H+H]
			h6 := q.wh[(j+6)*H : (j+6)*H+H]
			h7 := q.wh[(j+7)*H : (j+7)*H+H]
			var ah0, ah1, ah2, ah3, ah4, ah5, ah6, ah7 int64
			for k, hv := range h {
				hk := int64(hv)
				ah0 += int64(h0[k]) * hk
				ah1 += int64(h1[k]) * hk
				ah2 += int64(h2[k]) * hk
				ah3 += int64(h3[k]) * hk
				ah4 += int64(h4[k]) * hk
				ah5 += int64(h5[k]) * hk
				ah6 += int64(h6[k]) * hk
				ah7 += int64(h7[k]) * hk
			}
			a[j] = ax[j] + roundShift(ah0, q.whf) + q.b[j]
			a[j+1] = ax[j+1] + roundShift(ah1, q.whf) + q.b[j+1]
			a[j+2] = ax[j+2] + roundShift(ah2, q.whf) + q.b[j+2]
			a[j+3] = ax[j+3] + roundShift(ah3, q.whf) + q.b[j+3]
			a[j+4] = ax[j+4] + roundShift(ah4, q.whf) + q.b[j+4]
			a[j+5] = ax[j+5] + roundShift(ah5, q.whf) + q.b[j+5]
			a[j+6] = ax[j+6] + roundShift(ah6, q.whf) + q.b[j+6]
			a[j+7] = ax[j+7] + roundShift(ah7, q.whf) + q.b[j+7]
		}
		for ; j < 4*H; j += 4 {
			h0 := q.wh[j*H : j*H+H]
			h1 := q.wh[(j+1)*H : (j+1)*H+H]
			h2 := q.wh[(j+2)*H : (j+2)*H+H]
			h3 := q.wh[(j+3)*H : (j+3)*H+H]
			var ah0, ah1, ah2, ah3 int64
			for k, hv := range h {
				hk := int64(hv)
				ah0 += int64(h0[k]) * hk
				ah1 += int64(h1[k]) * hk
				ah2 += int64(h2[k]) * hk
				ah3 += int64(h3[k]) * hk
			}
			a[j] = ax[j] + roundShift(ah0, q.whf) + q.b[j]
			a[j+1] = ax[j+1] + roundShift(ah1, q.whf) + q.b[j+1]
			a[j+2] = ax[j+2] + roundShift(ah2, q.whf) + q.b[j+2]
			a[j+3] = ax[j+3] + roundShift(ah3, q.whf) + q.b[j+3]
		}
		for j := 0; j < H; j++ {
			ig := SigmoidQ(a[j])                                    // Q14
			fg := SigmoidQ(a[H+j])                                  // Q14
			gg := TanhQ(a[2*H+j])                                   // Q14
			og := SigmoidQ(a[3*H+j])                                // Q14
			cj := roundShift(int64(fg)*int64(c[j]), GateFracBits) + // Q14*Q12 >> 14
				roundShift(int64(ig)*int64(gg), 2*GateFracBits-ActFracBits) // Q28 >> 16
			c[j] = cj
			h[j] = int16(roundShift(int64(og)*int64(TanhQ(cj)), 2*GateFracBits-ActFracBits))
		}
	}
	for j := 0; j < H; j++ {
		q.hOut[j] = int32(h[j])
	}
	return q.hOut
}

// Forward is the float view of ForwardQ, matching LSTM.Forward's contract:
// the returned slice is reused by the next call.
func (q *QuantLSTM) Forward(xs [][]float64) []float64 {
	hq := q.ForwardQ(xs)
	for j, v := range hq {
		q.hOutF[j] = DequantAct(v)
	}
	return q.hOutF
}

// quantAct16 rounds a float to Q12 and clamps it to int16 (+/-8 real).
func quantAct16(v float64) int16 {
	a := QuantAct(v)
	if a > math.MaxInt16 {
		return math.MaxInt16
	}
	if a < math.MinInt16 {
		return math.MinInt16
	}
	return int16(a)
}

// quantWeights quantizes one tensor to int16 with the largest power-of-two
// scale 2^f (1 <= f <= 24) that keeps every rounded weight in int16.
func quantWeights(w []float64) ([]int16, uint) {
	maxabs := 0.0
	for _, v := range w {
		if a := math.Abs(v); a > maxabs {
			maxabs = a
		}
	}
	f := 24
	if maxabs > 0 {
		f = int(math.Floor(math.Log2(math.MaxInt16 / maxabs)))
		// Guard the edge where rounding still overflows.
		for f > 1 && math.RoundToEven(maxabs*float64(int64(1)<<uint(f))) > math.MaxInt16 {
			f--
		}
		if f > 24 {
			f = 24
		}
		if f < 1 {
			f = 1
		}
	}
	q := make([]int16, len(w))
	scale := float64(int64(1) << uint(f))
	for i, v := range w {
		r := math.RoundToEven(v * scale)
		if r > math.MaxInt16 {
			r = math.MaxInt16
		} else if r < math.MinInt16 {
			r = math.MinInt16
		}
		q[i] = int16(r)
	}
	return q, uint(f)
}
