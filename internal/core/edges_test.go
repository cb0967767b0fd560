package core

import (
	"fmt"
	"testing"
)

// thetaModels builds a float model and its fixed-point twin whose head 1
// emits θ_v = sigmoid(logits[v]) whatever the input: the output layer's
// weights are zero and its biases the logits. Head 0 keeps random weights.
// Both are returned after an Exist, ready for ThetaRows.
func thetaModels(t testing.TB, logits []float64) (*Model, *QuantModel, *Scratch) {
	t.Helper()
	cfg := DefaultConfig(2, 3, len(logits), 2)
	cfg.HiddenLSTM, cfg.HiddenTrunk, cfg.HiddenHead, cfg.Seed = 3, 3, 3, 5
	m, x := inferModelOf(t, cfg)
	fc2 := m.heads[1].fc2.Params()
	for i := range fc2[0].W {
		fc2[0].W[i] = 0
	}
	copy(fc2[1].W[1:], logits)
	q, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	sc, b := new(Scratch), make([]float64, 2)
	m.Exist(x, 0, sc, b)
	q.Exist(x, 0, nil, b)
	return m, q, sc
}

// rowLog records which rows of Θ a decoder asked its predictor for.
type rowLog struct {
	ThetaRower
	asked []int // per row, how many times
}

func (l *rowLog) ThetaRows(k int, sc *Scratch, lo int, dst []float64) {
	for v := range dst {
		l.asked[lo+v]++
	}
	l.ThetaRower.ThetaRows(k, sc, lo, dst)
}

// edgesMatchFull requires DecodeEdges on head k of p to answer what
// DecodeInterval answers on the head's full Θ, having asked for no row
// twice and — when the threshold is met — for none beyond the blocks that
// hold the interval's two ends.
func edgesMatchFull(t *testing.T, what string, p ThetaRower, k int, sc *Scratch, H int, tau2 float64) {
	t.Helper()
	full := make([]float64, H)
	p.ThetaRows(k, sc, 0, full)
	wantIV, wantMet := DecodeInterval(full, tau2)
	log := &rowLog{ThetaRower: p, asked: make([]int, H)}
	theta := make([]float64, H)
	gotIV, gotMet := DecodeEdges(log, k, sc, theta, tau2)
	if gotIV != wantIV || gotMet != wantMet {
		t.Fatalf("%s tau2=%v: DecodeEdges = %v %v, DecodeInterval(Theta) = %v %v", what, tau2, gotIV, gotMet, wantIV, wantMet)
	}
	left, right := H, 0 // rows [0, left) and [right, H) may be asked for
	if wantMet {
		left = min(H, (wantIV.Start+edgeBlock-1)/edgeBlock*edgeBlock)
		right = max(left, H-(H-wantIV.End+edgeBlock)/edgeBlock*edgeBlock)
	}
	for v, n := range log.asked {
		switch {
		case n > 1:
			t.Fatalf("%s tau2=%v: row %d computed %d times", what, tau2, v, n)
		case n == 1 && v >= left && v < right:
			t.Fatalf("%s tau2=%v: interior row %d computed (interval %v, H=%d)", what, tau2, v, wantIV, H)
		case n == 0 && !wantMet:
			t.Fatalf("%s tau2=%v: row %d not computed before the argmax fallback", what, tau2, v)
		case n == 1 && !bitsEqual(theta[v], full[v]):
			t.Fatalf("%s tau2=%v: theta[%d] = %v, full pass %v", what, tau2, v, theta[v], full[v])
		}
	}
}

// edgesOnBothPredictors runs edgesMatchFull on the crafted head and on the
// random one, float and fixed-point, at the three thresholds.
func edgesOnBothPredictors(t *testing.T, what string, logits []float64) {
	t.Helper()
	m, q, sc := thetaModels(t, logits)
	for _, tau2 := range []float64{0.1, 0.5, 0.9} {
		for k := 0; k < 2; k++ {
			edgesMatchFull(t, fmt.Sprintf("%s float head %d", what, k), m, k, sc, len(logits), tau2)
			edgesMatchFull(t, fmt.Sprintf("%s quant head %d", what, k), q, k, nil, len(logits), tau2)
		}
	}
}

// TestDecodeEdgesMatchesDecodeInterval: the table of shapes the two-sided
// scan can get wrong — nothing above τ2 (with tied maxima), a single hit on
// either side of every block boundary a left or right scan crosses, runs
// that end in the same block or far apart, everything above τ2, a θ equal to
// τ2 — at horizons that are and are not multiples of the block.
func TestDecodeEdgesMatchesDecodeInterval(t *testing.T) {
	const lo, mid, hi = -4.0, -1.0, 4.0 // sigmoid: 0.018, 0.27, 0.98
	for _, H := range []int{1, 5, edgeBlock, edgeBlock + 1, 64, 70} {
		pattern := func(base float64, at map[int]float64) []float64 {
			l := make([]float64, H)
			for v := range l {
				l[v] = base
			}
			for v, x := range at {
				if v >= 0 && v < H {
					l[v] = x
				}
			}
			return l
		}
		cases := map[string][]float64{
			"none, all tied":        pattern(lo, nil),
			"none, two tied maxima": pattern(lo, map[int]float64{H / 3: mid, 2 * H / 3: mid}),
			"all":                   pattern(hi, nil),
			"all but the ends":      pattern(hi, map[int]float64{0: lo, H - 1: lo}),
			"two runs":              pattern(lo, map[int]float64{5: hi, 6: hi, 7: hi, H - 30: hi, H - 29: hi}),
			"two hits in one block": pattern(lo, map[int]float64{2: hi, 9: hi}),
			"theta equal to tau2":   pattern(lo, map[int]float64{H / 2: 0}),
		}
		for _, v := range []int{0, 1, edgeBlock - 1, edgeBlock, edgeBlock + 1, 2*edgeBlock - 1, 2 * edgeBlock,
			H - 2*edgeBlock - 1, H - 2*edgeBlock, H - edgeBlock - 1, H - edgeBlock, H - edgeBlock + 1, H - 2, H - 1} {
			cases[fmt.Sprintf("single hit at %d", v)] = pattern(lo, map[int]float64{v: hi})
		}
		for name, logits := range cases {
			edgesOnBothPredictors(t, fmt.Sprintf("H=%d %s", H, name), logits)
		}
	}
}

// FuzzDecodeEdges: any pattern of five logit levels over any horizon up to
// six blocks.
func FuzzDecodeEdges(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 2})
	f.Add([]byte("\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	levels := []float64{-4, -1, 0, 1, 4}
	f.Fuzz(func(t *testing.T, rows []byte) {
		if len(rows) == 0 || len(rows) > 6*edgeBlock {
			t.Skip()
		}
		logits := make([]float64, len(rows))
		for v, r := range rows {
			logits[v] = levels[int(r)%len(levels)]
		}
		edgesOnBothPredictors(t, fmt.Sprintf("%v", rows), logits)
	})
}
