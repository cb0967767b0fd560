package nn

import (
	"fmt"

	"eventhit/internal/mathx"
)

// LSTM is a single-layer long short-term memory encoder (Hochreiter &
// Schmidhuber 1997), the temporal backbone of EventHit's shared sub-network
// (§III). Forward consumes a whole sequence into an LSTMTape and returns
// the final hidden state h_n; Backward runs full BPTT over a tape given the
// gradient of the loss with respect to h_n; AccumulateGrads sums the
// parameter gradients of a batch of backward passes. The layer itself
// holds only its parameters, so any number of goroutines may run Forward
// and Backward on one layer with their own tapes.
//
// Gate pre-activations are stacked in the order input, forget, candidate,
// output: a_t = Wx*x_t + Wh*h_{t-1} + b, with Wx of shape 4H x D and Wh of
// shape 4H x H (row-major).
type LSTM struct {
	in, hidden int
	wx, wh, b  *Param
}

// LSTMTape is one sequence's pass through an LSTM: what Forward computes,
// one entry per timestep, and the gate gradients Backward derives from it.
// The zero value is ready; it sizes itself on Forward and keeps its memory
// for the next sequence.
type LSTMTape struct {
	xs     [][]float64 // the input sequence
	hs, cs [][]float64 // hs[0]/cs[0] are the zero initial state
	tcs    [][]float64 // tanh(c_t), which Backward reads back
	ax     []float64   // gate pre-activations, input part (Forward)
	// ga holds step t's post-activation gates, stacked like the
	// pre-activations, until Backward replaces them with dL/da_t, the gate
	// gradients AccumulateGrads reads.
	ga [][]float64

	dhCur, dc, dhPrev []float64 // BPTT state (Backward)
	steps, width      int       // the T and H the buffers are carved for
}

// carve sizes tp for T steps of an H-wide layer, keeping its buffers when
// they fit. They come from one allocation, so tapes that different
// goroutines fill share no cache line but at the ends of their blocks.
func (tp *LSTMTape) carve(T, H int) {
	if tp.steps == T && tp.width == H {
		return
	}
	buf := make([]float64, 2*(T+1)*H+T*H+T*4*H+7*H)
	rows := make([][]float64, 2*(T+1)+2*T)
	take := func(n int) []float64 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	split := func(r, w int) [][]float64 {
		out := rows[:r:r]
		rows = rows[r:]
		for i := range out {
			out[i] = take(w)
		}
		return out
	}
	tp.hs, tp.cs, tp.tcs, tp.ga = split(T+1, H), split(T+1, H), split(T, H), split(T, 4*H)
	tp.ax, tp.dhCur, tp.dc, tp.dhPrev = take(4*H), take(H), take(H), take(H)
	tp.steps, tp.width = T, H
}

// NewLSTM returns an LSTM with Xavier-initialized input and recurrent
// weights and forget-gate biases initialized to 1 (the usual trick that
// keeps early gradients flowing).
func NewLSTM(name string, in, hidden int, g *mathx.RNG) *LSTM {
	l := &LSTM{
		in:     in,
		hidden: hidden,
		wx:     NewParam(name+".wx", 4*hidden*in),
		wh:     NewParam(name+".wh", 4*hidden*hidden),
		b:      NewParam(name+".b", 4*hidden),
	}
	XavierInit(l.wx.W, in, hidden, g)
	XavierInit(l.wh.W, hidden, hidden, g)
	for h := 0; h < hidden; h++ {
		l.b.W[hidden+h] = 1 // forget gate block
	}
	return l
}

// In returns the per-step input width D.
func (l *LSTM) In() int { return l.in }

// Hidden returns the hidden state width.
func (l *LSTM) Hidden() int { return l.hidden }

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.wx, l.wh, l.b} }

// Packed is a copy of an LSTM's input and recurrent weights in
// mathx.PackRows4's layout, the form every forward pass reads them in. It
// is a snapshot: after the weights change, Pack again.
type Packed struct{ wx, wh []float64 }

// Pack returns the layer's current weights packed.
func (l *LSTM) Pack() *Packed {
	p := &Packed{}
	l.PackInto(p)
	return p
}

// PackInto packs the layer's current weights into p, reusing its memory.
func (l *LSTM) PackInto(p *Packed) {
	p.wx, p.wh = mathx.PackRows4(p.wx, l.wx.W, l.in), mathx.PackRows4(p.wh, l.wh.W, l.hidden)
}

// Forward processes the sequence xs (each element length D) over p, which
// must be Pack() of the current weights, recording every activation in tp,
// and returns the final hidden state h_n. The sequence must be non-empty;
// tp keeps a reference to it for Backward and AccumulateGrads. The returned
// slice is tp's: it lives until tp's next Forward.
func (l *LSTM) Forward(tp *LSTMTape, xs [][]float64, p *Packed) []float64 {
	if len(xs) == 0 {
		panic("nn: LSTM forward on empty sequence")
	}
	H := l.hidden
	T := len(xs)
	tp.xs = xs
	tp.carve(T, H)
	mathx.Fill(tp.hs[0], 0)
	mathx.Fill(tp.cs[0], 0)
	for t, x := range xs {
		l.Project(tp.ax, x, p)
		mathx.MatVecPacked(tp.ga[t], p.wh, tp.hs[t])
		addInput(tp.ga[t], tp.ax, l.b.W)
		copy(tp.cs[t+1], tp.cs[t])
		cell(tp.hs[t+1], tp.cs[t+1], tp.ga[t], tp.tcs[t])
	}
	return tp.hs[T]
}

// addInput completes a = wh.h into ax + wh.h + b, summed in that order.
func addInput(a, ax, b []float64) {
	for j, bj := range b {
		a[j] = ax[j] + a[j] + bj
	}
}

// InferLen returns how many floats of scratch Infer needs.
func (l *LSTM) InferLen() int { return 10 * l.hidden }

// Infer is Forward for inference: it reads the weights (p and the bias),
// keeps every activation in buf (at least InferLen floats) and caches
// nothing for a Backward, so concurrent callers with their own buf may
// share one layer and one p. The returned h_n aliases buf and is
// bit-identical to Forward's.
func (l *LSTM) Infer(xs [][]float64, p *Packed, buf []float64) []float64 {
	if len(xs) == 0 {
		panic("nn: LSTM forward on empty sequence")
	}
	H := l.hidden
	h, c, a, ax := buf[:H], buf[H:2*H], buf[2*H:6*H], buf[6*H:10*H]
	mathx.Fill(buf[:2*H], 0)
	for _, x := range xs {
		l.Project(ax, x, p)
		l.step(h, c, a, ax, p)
	}
	return h
}

// Project fills dst (4*Hidden floats) with Wx*x over p, the part of a
// step's gate pre-activations that depends on the input row alone — the
// same for every window the row appears in.
func (l *LSTM) Project(dst, x []float64, p *Packed) {
	if len(x) != l.in {
		panic(fmt.Sprintf("nn: LSTM %s input width %d, want %d", l.wx.Name, len(x), l.in))
	}
	mathx.MatVecPacked(dst, p.wx, x)
}

// InferProjected is Infer over a sequence given as its input parts, axs[t]
// = Project(x_t). Infer sums ax[j] + a[j] + b[j] with ax computed apart, so
// where ax came from cannot show: h_n is bit-identical to Infer's.
func (l *LSTM) InferProjected(axs [][]float64, p *Packed, buf []float64) []float64 {
	if len(axs) == 0 {
		panic("nn: LSTM forward on empty sequence")
	}
	H := l.hidden
	h, c, a := buf[:H], buf[H:2*H], buf[2*H:6*H]
	mathx.Fill(buf[:2*H], 0)
	for _, ax := range axs {
		l.step(h, c, a, ax, p)
	}
	return h
}

// step advances (h, c) by one input part ax: the pre-activations through
// the packed mat-vec, then the cell.
func (l *LSTM) step(h, c, a, ax []float64, p *Packed) {
	mathx.MatVecPacked(a, p.wh, h)
	addInput(a, ax, l.b.W)
	cell(h, c, a, h)
}

// cell advances the state (h, c) in place through the gate nonlinearities
// of the stacked pre-activations a, leaving the activated gates in a and
// tanh(c) in tc (which may be h): c = f*c + i*g and h = o*tanh(c), unit by
// unit as the scalar functions.
func cell(h, c, a, tc []float64) {
	H := len(h)
	i, f, g, o := a[:H], a[H:2*H], a[2*H:3*H], a[3*H:4*H]
	mathx.SigmoidInto(a[:2*H], a[:2*H])
	mathx.TanhInto(g, g)
	mathx.SigmoidInto(o, o)
	for j := range c {
		c[j] = f[j]*c[j] + i[j]*g[j]
	}
	mathx.TanhInto(tc, c)
	for j := range h {
		h[j] = o[j] * tc[j]
	}
}

// Backward runs backpropagation through time over the pass tp recorded,
// given dh, the gradient of the loss with respect to the final hidden
// state: it leaves every step's gate gradients dL/da_t in tp for
// AccumulateGrads, in place of the gates it reads once, and, when dxs is
// non-nil, writes the input gradients dL/dx_t into dxs[t]. It runs once per
// Forward, reads the weights and writes only tp and dxs.
func (l *LSTM) Backward(tp *LSTMTape, dh []float64, dxs [][]float64) {
	H := l.hidden
	if len(dh) != H {
		panic(fmt.Sprintf("nn: LSTM %s grad width %d, want %d", l.wx.Name, len(dh), H))
	}
	T := len(tp.xs)
	dhCur, dc, dhPrev := tp.dhCur, tp.dc, tp.dhPrev
	copy(dhCur, dh)
	mathx.Fill(dc, 0)
	for t := T - 1; t >= 0; t-- {
		// Unit j's four gradients replace its four gates, read first.
		cPrev, tcs, gs, da := tp.cs[t], tp.tcs[t], tp.ga[t], tp.ga[t]
		for j := 0; j < H; j++ {
			i, f, g, o := gs[j], gs[H+j], gs[2*H+j], gs[3*H+j]
			tc := tcs[j]
			dcj := dc[j] + dhCur[j]*o*(1-tc*tc)
			da[j] = dcj * g * i * (1 - i)          // input gate
			da[H+j] = dcj * cPrev[j] * f * (1 - f) // forget gate
			da[2*H+j] = dcj * i * (1 - g*g)        // candidate
			da[3*H+j] = dhCur[j] * tc * o * (1 - o)
			dc[j] = dcj * f
		}
		if dxs != nil {
			mathx.Fill(dxs[t], 0)
			mathx.BackRowsX(l.wx.W, da, dxs[t])
		}
		if t > 0 {
			mathx.Fill(dhPrev, 0)
			mathx.BackRowsX(l.wh.W, da, dhPrev)
			copy(dhCur, dhPrev)
		}
	}
}

// AppendSteps appends the steps of tp's last Backward in the order their
// gradients are summed, t = T-1 down to 0: the gate gradients to das, the
// inputs x_t to xs and the previous hidden states h_{t-1} to hs. A batch's
// lists, tape after tape, are what AccumulateGrads reads.
func (tp *LSTMTape) AppendSteps(das, xs, hs [][]float64) ([][]float64, [][]float64, [][]float64) {
	for t := len(tp.xs) - 1; t >= 0; t-- {
		das, xs, hs = append(das, tp.ga[t]), append(xs, tp.xs[t]), append(hs, tp.hs[t])
	}
	return das, xs, hs
}

// AccumulateGrads adds the parameter gradients of the listed steps (see
// AppendSteps) to gate rows [lo, hi) of Wx, Wh and b. Each gradient element
// takes its steps' products in list order, zero gate gradients skipped —
// the order of one backward pass after another, each running over its
// steps from the last — so calls on disjoint row ranges may run
// concurrently and together equal one call over every row.
func (l *LSTM) AccumulateGrads(das, xs, hs [][]float64, lo, hi int) {
	mathx.BackRowsG(l.wx.G[lo*l.in:hi*l.in], lo, das, xs)
	mathx.BackRowsG(l.wh.G[lo*l.hidden:hi*l.hidden], lo, das, hs)
	for _, da := range das {
		addBiasGrad(l.b.G[lo:hi], da[lo:hi])
	}
}

// addBiasGrad adds the non-zero entries of da to the bias gradient gb, with
// mathx.BackRowsG's skip, so a -0 in gb stays -0.
func addBiasGrad(gb, da []float64) {
	for j, g := range da {
		if g != 0 {
			gb[j] += g
		}
	}
}
