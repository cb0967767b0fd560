package nn

import (
	"fmt"
	"math"

	"eventhit/internal/mathx"
)

// GRU is a gated recurrent unit encoder (Cho et al. 2014) — the cheaper
// alternative to the paper's LSTM, provided for the encoder ablation.
// Like LSTM, Forward consumes a sequence and returns the final hidden
// state; Backward runs full BPTT from the final-state gradient.
//
// Gate pre-activations stack reset, update: a_t = Wx*x_t + Wh*h_{t-1} + b
// (2H rows); the candidate uses its own weights with the reset-gated
// hidden state: c_t = tanh(Wxc*x_t + Whc*(r ⊙ h_{t-1}) + bc);
// h_t = (1-z) ⊙ h_{t-1} + z ⊙ c_t.
type GRU struct {
	in, hidden   int
	wx, wh, b    *Param // reset+update gates, 2H x {in,hidden}, 2H
	wxc, whc, bc *Param // candidate, H x {in,hidden}, H
	xs           [][]float64
	hs           [][]float64 // hs[0] is the zero initial state
	rg, zg, cand [][]float64 // post-activation gates and candidate per step
	rhPrev       [][]float64 // r ⊙ h_{t-1} cache

	// scratch reused across calls so the training hot path allocates
	// nothing per step
	a, ac, ax     []float64   // gate / candidate pre-activations, input part (Forward)
	hOut          []float64   // copy of h_n returned by Forward
	dxs           [][]float64 // per-step input gradients (Backward)
	dhCur, dhPrev []float64   // BPTT state (Backward)
	da, dac, drh  []float64   // gate gradients (Backward)
}

// NewGRU returns a GRU with Xavier-initialized weights.
func NewGRU(name string, in, hidden int, g *mathx.RNG) *GRU {
	u := &GRU{
		in:     in,
		hidden: hidden,
		wx:     NewParam(name+".wx", 2*hidden*in),
		wh:     NewParam(name+".wh", 2*hidden*hidden),
		b:      NewParam(name+".b", 2*hidden),
		wxc:    NewParam(name+".wxc", hidden*in),
		whc:    NewParam(name+".whc", hidden*hidden),
		bc:     NewParam(name+".bc", hidden),
		a:      make([]float64, 2*hidden),
		ac:     make([]float64, hidden),
		ax:     make([]float64, 2*hidden),
		hOut:   make([]float64, hidden),
		dhCur:  make([]float64, hidden),
		dhPrev: make([]float64, hidden),
		da:     make([]float64, 2*hidden),
		dac:    make([]float64, hidden),
		drh:    make([]float64, hidden),
	}
	XavierInit(u.wx.W, in, hidden, g)
	XavierInit(u.wh.W, hidden, hidden, g)
	XavierInit(u.wxc.W, in, hidden, g)
	XavierInit(u.whc.W, hidden, hidden, g)
	return u
}

// In returns the per-step input width.
func (u *GRU) In() int { return u.in }

// Hidden returns the hidden width.
func (u *GRU) Hidden() int { return u.hidden }

// Params implements Layer.
func (u *GRU) Params() []*Param {
	return []*Param{u.wx, u.wh, u.b, u.wxc, u.whc, u.bc}
}

// Forward processes the sequence and returns the final hidden state. The
// returned slice is reused by the next Forward; copy it if it must survive
// that call.
func (u *GRU) Forward(xs [][]float64) []float64 {
	if len(xs) == 0 {
		panic("nn: GRU forward on empty sequence")
	}
	H := u.hidden
	T := len(xs)
	u.xs = xs
	u.hs = grow2d(u.hs, T+1, H)
	u.rg = grow2d(u.rg, T, H)
	u.zg = grow2d(u.zg, T, H)
	u.cand = grow2d(u.cand, T, H)
	u.rhPrev = grow2d(u.rhPrev, T, H)
	mathx.Fill(u.hs[0], 0)

	a, ac := u.a, u.ac
	for t := 0; t < T; t++ {
		x := xs[t]
		if len(x) != u.in {
			panic(fmt.Sprintf("nn: GRU %s input width %d, want %d", u.wx.Name, len(x), u.in))
		}
		hPrev := u.hs[t]
		preact(a, u.ax, u.wx.W, u.wh.W, u.b.W, x, hPrev)
		for j := 0; j < H; j++ {
			u.rg[t][j] = mathx.Sigmoid(a[j])
			u.zg[t][j] = mathx.Sigmoid(a[H+j])
			u.rhPrev[t][j] = u.rg[t][j] * hPrev[j]
		}
		preact(ac, u.ax[:H], u.wxc.W, u.whc.W, u.bc.W, x, u.rhPrev[t])
		for j := 0; j < H; j++ {
			u.cand[t][j] = math.Tanh(ac[j])
		}
		h := u.hs[t+1]
		for j := 0; j < H; j++ {
			z := u.zg[t][j]
			h[j] = (1-z)*hPrev[j] + z*u.cand[t][j]
		}
	}
	copy(u.hOut, u.hs[T])
	return u.hOut
}

// InferLen returns how many floats of scratch Infer needs.
func (u *GRU) InferLen() int { return 7 * u.hidden }

// Infer is Forward for inference: weights are only read, every activation
// lives in buf (at least InferLen floats) and nothing is cached for a
// Backward. The returned h_n aliases buf and is bit-identical to Forward's.
func (u *GRU) Infer(xs [][]float64, buf []float64) []float64 {
	if len(xs) == 0 {
		panic("nn: GRU forward on empty sequence")
	}
	H := u.hidden
	h, a, ax, rh, ac := buf[:H], buf[H:3*H], buf[3*H:5*H], buf[5*H:6*H], buf[6*H:7*H]
	mathx.Fill(h, 0)
	for _, x := range xs {
		if len(x) != u.in {
			panic(fmt.Sprintf("nn: GRU %s input width %d, want %d", u.wx.Name, len(x), u.in))
		}
		preact(a, ax, u.wx.W, u.wh.W, u.b.W, x, h)
		for j := 0; j < H; j++ {
			a[H+j] = mathx.Sigmoid(a[H+j]) // update gate z
			rh[j] = mathx.Sigmoid(a[j]) * h[j]
		}
		preact(ac, ax[:H], u.wxc.W, u.whc.W, u.bc.W, x, rh)
		for j := 0; j < H; j++ {
			z := a[H+j]
			h[j] = (1-z)*h[j] + z*math.Tanh(ac[j])
		}
	}
	return h
}

// Backward runs BPTT given the gradient of the loss w.r.t. the final
// hidden state, accumulating parameter gradients, and returns per-step
// input gradients.
func (u *GRU) Backward(dh []float64) [][]float64 {
	H := u.hidden
	if len(dh) != H {
		panic(fmt.Sprintf("nn: GRU %s grad width %d, want %d", u.wx.Name, len(dh), H))
	}
	T := len(u.xs)
	u.dxs = grow2d(u.dxs, T, u.in)
	dxs := u.dxs
	dhCur, dhPrev, da, dac, drh := u.dhCur, u.dhPrev, u.da, u.dac, u.drh
	copy(dhCur, dh)
	for t := T - 1; t >= 0; t-- {
		x, hPrev := u.xs[t], u.hs[t]
		for j := 0; j < H; j++ {
			z, c, r := u.zg[t][j], u.cand[t][j], u.rg[t][j]
			dz := dhCur[j] * (c - hPrev[j])
			dc := dhCur[j] * z
			dhPrev[j] = dhCur[j] * (1 - z)
			dac[j] = dc * (1 - c*c)
			da[H+j] = dz * z * (1 - z)
			_ = r
		}
		// candidate path: dac -> wxc, whc, bc, drh, dx
		dx := dxs[t]
		mathx.Fill(dx, 0)
		mathx.Fill(drh, 0)
		for j := 0; j < H; j++ {
			g := dac[j]
			if g != 0 {
				wxcRow := u.wxc.W[j*u.in : (j+1)*u.in]
				gxcRow := u.wxc.G[j*u.in : (j+1)*u.in]
				for k, xv := range x {
					gxcRow[k] += g * xv
					dx[k] += g * wxcRow[k]
				}
				whcRow := u.whc.W[j*H : (j+1)*H]
				ghcRow := u.whc.G[j*H : (j+1)*H]
				for k, rh := range u.rhPrev[t] {
					ghcRow[k] += g * rh
					drh[k] += g * whcRow[k]
				}
				u.bc.G[j] += g
			}
		}
		// reset gate from drh: rh = r*hPrev
		for j := 0; j < H; j++ {
			r := u.rg[t][j]
			dhPrev[j] += drh[j] * r
			dr := drh[j] * hPrev[j]
			da[j] = dr * r * (1 - r)
		}
		// gates path: da -> wx, wh, b, dhPrev, dx
		for j := 0; j < 2*H; j++ {
			g := da[j]
			if g == 0 {
				continue
			}
			wxRow := u.wx.W[j*u.in : (j+1)*u.in]
			gxRow := u.wx.G[j*u.in : (j+1)*u.in]
			for k, xv := range x {
				gxRow[k] += g * xv
				dx[k] += g * wxRow[k]
			}
			whRow := u.wh.W[j*H : (j+1)*H]
			ghRow := u.wh.G[j*H : (j+1)*H]
			for k, hv := range hPrev {
				ghRow[k] += g * hv
				dhPrev[k] += g * whRow[k]
			}
			u.b.G[j] += g
		}
		copy(dhCur, dhPrev)
	}
	return dxs
}
