package nn

import (
	"fmt"

	"eventhit/internal/mathx"
)

// LSTM is a single-layer long short-term memory encoder (Hochreiter &
// Schmidhuber 1997), the temporal backbone of EventHit's shared sub-network
// (§III). Forward consumes a whole sequence and returns the final hidden
// state h_n; Backward runs truncated-nothing BPTT over the full cached
// sequence given the gradient of the loss with respect to h_n.
//
// Gate pre-activations are stacked in the order input, forget, candidate,
// output: a_t = Wx*x_t + Wh*h_{t-1} + b, with Wx of shape 4H x D and Wh of
// shape 4H x H (row-major).
type LSTM struct {
	in, hidden int
	wx, wh, b  *Param

	// caches from the last Forward, one entry per timestep
	xs     [][]float64
	hs, cs [][]float64 // hs[0]/cs[0] are the zero initial state
	gs     [][]float64 // post-activation gates, stacked like the pre-activations
	tcs    [][]float64 // tanh(c_t), which Backward reads back

	// scratch reused across calls so the training hot path allocates
	// nothing per step
	ax                []float64   // gate pre-activations, input part (Forward)
	hOut              []float64   // copy of h_n returned by Forward
	dxs               [][]float64 // per-step input gradients (Backward)
	dhCur, dc, dhPrev []float64   // BPTT state (Backward)
	da                []float64   // gate gradients (Backward)
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
		ax:     make([]float64, 4*hidden),
		hOut:   make([]float64, hidden),
		dhCur:  make([]float64, hidden),
		dc:     make([]float64, hidden),
		dhPrev: make([]float64, hidden),
		da:     make([]float64, 4*hidden),
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
	return &Packed{mathx.PackRows4(l.wx.W, l.in), mathx.PackRows4(l.wh.W, l.hidden)}
}

// Forward processes the sequence xs (each element length D) over p, which
// must be Pack() of the current weights, and returns the final hidden
// state h_n. The sequence must be non-empty. The returned slice is reused
// by the next Forward; copy it if it must survive that call.
func (l *LSTM) Forward(xs [][]float64, p *Packed) []float64 {
	if len(xs) == 0 {
		panic("nn: LSTM forward on empty sequence")
	}
	H := l.hidden
	T := len(xs)
	l.xs = xs
	l.hs = grow2d(l.hs, T+1, H)
	l.cs = grow2d(l.cs, T+1, H)
	l.gs = grow2d(l.gs, T, 4*H)
	l.tcs = grow2d(l.tcs, T, H)
	mathx.Fill(l.hs[0], 0)
	mathx.Fill(l.cs[0], 0)
	for t, x := range xs {
		l.Project(l.ax, x, p)
		mathx.MatVecPacked(l.gs[t], p.wh, l.hs[t])
		addInput(l.gs[t], l.ax, l.b.W)
		copy(l.cs[t+1], l.cs[t])
		cell(l.hs[t+1], l.cs[t+1], l.gs[t], l.tcs[t])
	}
	copy(l.hOut, l.hs[T])
	return l.hOut
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

// Backward runs backpropagation through time given dh, the gradient of the
// loss with respect to the final hidden state, accumulating parameter
// gradients. It returns per-step input gradients (reused across calls).
func (l *LSTM) Backward(dh []float64) [][]float64 {
	H := l.hidden
	if len(dh) != H {
		panic(fmt.Sprintf("nn: LSTM %s grad width %d, want %d", l.wx.Name, len(dh), H))
	}
	T := len(l.xs)
	l.dxs = grow2d(l.dxs, T, l.in)
	dxs := l.dxs
	dhCur, dc, da, dhPrev := l.dhCur, l.dc, l.da, l.dhPrev
	copy(dhCur, dh)
	mathx.Fill(dc, 0)
	for t := T - 1; t >= 0; t-- {
		x, hPrev, cPrev, tcs, gs := l.xs[t], l.hs[t], l.cs[t], l.tcs[t], l.gs[t]
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
		// The Wx and Wh passes write disjoint arrays, so running one after
		// the other instead of row by row interleaved changes no bit.
		dx := dxs[t]
		mathx.Fill(dx, 0)
		mathx.Fill(dhPrev, 0)
		mathx.BackRows(l.wx.G, l.wx.W, da, x, dx)
		mathx.BackRows(l.wh.G, l.wh.W, da, hPrev, dhPrev)
		addBiasGrad(l.b.G, da)
		copy(dhCur, dhPrev)
	}
	return dxs
}

// addBiasGrad adds the non-zero entries of da to the bias gradient gb, with
// mathx.BackRows' skip, so a -0 in gb stays -0.
func addBiasGrad(gb, da []float64) {
	for j, g := range da {
		if g != 0 {
			gb[j] += g
		}
	}
}

// grow2d reuses buf if it is large enough, otherwise allocates rows x cols.
func grow2d(buf [][]float64, rows, cols int) [][]float64 {
	if len(buf) >= rows && len(buf[0]) == cols {
		return buf[:rows]
	}
	out := make([][]float64, rows)
	flat := make([]float64, rows*cols)
	for i := range out {
		out[i], flat = flat[:cols], flat[cols:]
	}
	return out
}
