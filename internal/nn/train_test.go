package nn

import (
	"fmt"
	"math"
	"testing"

	"eventhit/internal/mathx"
)

// forward is ApplyRows over every row of d, its weights packed afresh,
// into a fresh slice.
func forward(d *Dense, x []float64) []float64 {
	y := make([]float64, d.out)
	d.ApplyRows(y, x, 0, d.Pack())
	return y
}

// withGrads attaches zeroed gradients to the parameters of ls, as an
// optimizer does, and returns the parameters.
func withGrads(ls ...Layer) []*Param {
	ps := CollectParams(ls...)
	NewAdam(ps, 1)
	return ps
}

// backward is one record's Dense backward pass: its weight gradients added
// to G (see withGrads), dL/dx returned.
func backward(d *Dense, x, dy []float64) []float64 {
	dx := make([]float64, d.in)
	d.Backward(dx, dy)
	d.AccumulateGrads([][]float64{dy}, [][]float64{x}, 0, d.out)
	return dx
}

// lstmBackward is one sequence's LSTM backward pass over tp: its weight
// gradients added to G (see withGrads), the per-step input gradients
// returned.
func lstmBackward(l *LSTM, tp *LSTMTape, dh []float64) [][]float64 {
	dxs := make([][]float64, len(tp.xs))
	for t := range dxs {
		dxs[t] = make([]float64, l.in)
	}
	l.Backward(tp, dh, dxs)
	das, xs, hs := tp.AppendSteps(nil, nil, nil)
	l.AccumulateGrads(das, xs, hs, 0, 4*l.hidden)
	return dxs
}

// lstmBackwardRef is LSTM.Backward as it was written before BackRows: per
// step, math.Tanh(c_t) recomputed, then the gate rows in order, each row's
// Wx, Wh and bias updates interleaved. It reads the tape of the last
// Forward and accumulates into gx, gh and gb; it returns the per-step input
// gradients.
func lstmBackwardRef(l *LSTM, tp *LSTMTape, dh, gx, gh, gb []float64) [][]float64 {
	H, D, T := l.hidden, l.in, len(tp.xs)
	dxs := make([][]float64, T)
	dhCur, dc, da := append([]float64(nil), dh...), make([]float64, H), make([]float64, 4*H)
	for t := T - 1; t >= 0; t-- {
		x, hPrev, cPrev, c, gs := tp.xs[t], tp.hs[t], tp.cs[t], tp.cs[t+1], tp.ga[t]
		for j := 0; j < H; j++ {
			i, f, g, o := gs[j], gs[H+j], gs[2*H+j], gs[3*H+j]
			tc := math.Tanh(c[j])
			dcj := dc[j] + dhCur[j]*o*(1-tc*tc)
			da[j] = dcj * g * i * (1 - i)
			da[H+j] = dcj * cPrev[j] * f * (1 - f)
			da[2*H+j] = dcj * i * (1 - g*g)
			da[3*H+j] = dhCur[j] * tc * o * (1 - o)
			dc[j] = dcj * f
		}
		dx, dhPrev := make([]float64, D), make([]float64, H)
		for j, g := range da {
			if g == 0 {
				continue
			}
			for k, xv := range x {
				gx[j*D+k] += g * xv
				dx[k] += g * l.wx.W[j*D+k]
			}
			for k, hv := range hPrev {
				gh[j*H+k] += g * hv
				dhPrev[k] += g * l.wh.W[j*H+k]
			}
			gb[j] += g
		}
		dxs[t] = dx
		copy(dhCur, dhPrev)
	}
	return dxs
}

// TestLSTMBackwardMatchesRef: on every kernel path, Backward's parameter
// and input gradients equal lstmBackwardRef's bit for bit, with inputs
// scaled ×400 so that saturated gates leave rows of da at zero (skipped)
// and some gate pre-activations take the scalar exp fallback, and with
// gradients already accumulated from an earlier record.
func TestLSTMBackwardMatchesRef(t *testing.T) {
	g := mathx.NewRNG(16)
	const in, T = 12, 9
	for _, H := range lstmWidths {
		for _, scale := range []float64{1, 400} {
			what := fmt.Sprintf("H=%d scale=%v", H, scale)
			onPaths(t, func(t *testing.T) {
				l := NewLSTM("l", in, H, g.Split(int64(H)))
				withGrads(l)
				dh := randSeq(g, 1, H)[0]
				var gx, gh, gb []float64
				var tp LSTMTape
				for rec := 0; rec < 2; rec++ {
					xs := randSeq(g, T, in)
					for _, x := range xs {
						mathx.Scale(scale, x)
					}
					l.Forward(&tp, xs, l.Pack())
					gx, gh, gb = append(gx[:0], l.wx.G...), append(gh[:0], l.wh.G...), append(gb[:0], l.b.G...)
					want := lstmBackwardRef(l, &tp, dh, gx, gh, gb)
					got := lstmBackward(l, &tp, dh)
					for s := range want {
						sameBits(t, fmt.Sprintf("%s dx[%d]", what, s), got[s], want[s])
					}
					sameBits(t, what+" dWx", l.wx.G, gx)
					sameBits(t, what+" dWh", l.wh.G, gh)
					sameBits(t, what+" db", l.b.G, gb)
				}
			})
		}
	}
}

// TestDenseBackwardMatchesRef: Dense.Backward against its row loop before
// BackRows, on every kernel path, with zero entries in dy.
func TestDenseBackwardMatchesRef(t *testing.T) {
	g := mathx.NewRNG(17)
	for _, in := range []int{1, 3, 7, 24, 32, 33} {
		for _, out := range blockWidths {
			onPaths(t, func(t *testing.T) {
				d := NewDense("d", in, out, g.Split(int64(in*100+out)))
				withGrads(d)
				x := randSeq(g, 1, in)[0]
				dy := randSeq(g, 1, out)[0]
				dy[0] = 0
				mathx.Fill(d.w.G, 0.25)
				gw, gb := append([]float64(nil), d.w.G...), append([]float64(nil), d.b.G...)
				dx := make([]float64, in)
				for o, gy := range dy {
					if gy == 0 {
						continue
					}
					for i, xi := range x {
						gw[o*in+i] += gy * xi
						dx[i] += gy * d.w.W[o*in+i]
					}
					gb[o] += gy
				}
				what := fmt.Sprintf("in=%d out=%d", in, out)
				sameBits(t, what+" dx", backward(d, x, dy), dx)
				sameBits(t, what+" dW", d.w.G, gw)
				sameBits(t, what+" db", d.b.G, gb)
			})
		}
	}
}

// TestBCEWithLogitsScalarBits: the one-exp form against the three-call
// formula it replaced, bit for bit, on signed zeros, infinities, the
// largest finite values, subnormals, exp's range edges and random logits,
// with hard and soft targets and several weights.
func TestBCEWithLogitsScalarBits(t *testing.T) {
	ref := func(z, y, w float64) (float64, float64) {
		return -w * (y*mathx.LogSigmoid(z) + (1-y)*mathx.LogSigmoid(-z)), w * (mathx.Sigmoid(z) - y)
	}
	zs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022,
		708, -708, 709, -709, 745, -745, 36.8, -36.8, 1, -1}
	g := mathx.NewRNG(18)
	n := 200000
	if testing.Short() {
		n = 5000
	}
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			zs = append(zs, (g.Float64()*2-1)*40)
		case 1:
			zs = append(zs, (g.Float64()*2-1)*math.Ldexp(1, g.Intn(80)-60))
		default:
			if z := math.Float64frombits(mathx.HashU64(18, uint64(i))); !math.IsNaN(z) {
				zs = append(zs, z)
			}
		}
	}
	for _, z := range zs {
		for _, y := range []float64{0, 1, 0.3} {
			for _, w := range []float64{1, 0.037, 2.5} {
				l, d := BCEWithLogitsScalar(z, y, w)
				wl, wd := ref(z, y, w)
				if math.Float64bits(l) != math.Float64bits(wl) || math.Float64bits(d) != math.Float64bits(wd) {
					t.Fatalf("BCEWithLogitsScalar(%v, %v, %v) = (%v, %v), want (%v, %v)", z, y, w, l, d, wl, wd)
				}
			}
		}
	}
}

// TestAccumulateGradsRowRanges: a batch's weight gradients summed over
// disjoint row ranges, in any order, equal one call over every row, bit
// for bit, for the LSTM (weights and bias) and Dense.
func TestAccumulateGradsRowRanges(t *testing.T) {
	g := mathx.NewRNG(19)
	const in, H, T, batch = 5, 6, 4, 3
	l := NewLSTM("l", in, H, g.Split(1))
	d := NewDense("d", in, 2*H+1, g.Split(2))
	withGrads(l, d)
	var das, xs, hs, dys, dxs [][]float64
	for r := 0; r < batch; r++ {
		var tp LSTMTape
		seq := randSeq(g, T, in)
		l.Forward(&tp, seq, l.Pack())
		l.Backward(&tp, randSeq(g, 1, H)[0], nil)
		das, xs, hs = tp.AppendSteps(das, xs, hs)
		dy := randSeq(g, 1, 2*H+1)[0]
		dy[r] = 0
		dys, dxs = append(dys, dy), append(dxs, seq[0])
	}
	grads := func() []float64 {
		var out []float64
		for _, p := range CollectParams(l, d) {
			out = append(out, p.G...)
			p.ZeroGrad()
		}
		return out
	}
	l.AccumulateGrads(das, xs, hs, 0, 4*H)
	d.AccumulateGrads(dys, dxs, 0, 2*H+1)
	want := grads()
	for _, cut := range [][]int{{0, 5, 9, 4 * H}, {0, 4, 8, 20, 4 * H}} {
		for i := len(cut) - 2; i >= 0; i-- { // last range first
			l.AccumulateGrads(das, xs, hs, cut[i], cut[i+1])
		}
		for lo := 2*H + 1; lo > 0; lo -= 4 {
			d.AccumulateGrads(dys, dxs, max(lo-4, 0), lo)
		}
		sameBits(t, fmt.Sprintf("cut %v", cut), grads(), want)
	}
}
