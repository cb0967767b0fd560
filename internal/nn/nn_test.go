package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"slices"
	"strings"
	"testing"

	"eventhit/internal/mathx"
)

func TestParamZeroGrad(t *testing.T) {
	p := NewParam("p", 3)
	p.G = []float64{1, 0, -2}
	p.ZeroGrad()
	for _, g := range p.G {
		if g != 0 {
			t.Fatal("ZeroGrad left residue")
		}
	}
}

func TestCollectParamsDetectsDuplicates(t *testing.T) {
	g := mathx.NewRNG(1)
	a := NewDense("same", 2, 2, g)
	b := NewDense("same", 2, 2, g)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate parameter names")
		}
	}()
	CollectParams(a, b)
}

func TestNumParams(t *testing.T) {
	g := mathx.NewRNG(1)
	d := NewDense("d", 3, 4, g)
	if n := NumParams(d.Params()); n != 3*4+4 {
		t.Fatalf("NumParams = %d, want 16", n)
	}
}

func TestDenseForwardKnownValues(t *testing.T) {
	g := mathx.NewRNG(1)
	d := NewDense("d", 2, 2, g)
	copy(d.w.W, []float64{1, 2, 3, 4}) // rows: [1 2], [3 4]
	copy(d.b.W, []float64{10, 20})
	y := forward(d, []float64{1, 1})
	if y[0] != 13 || y[1] != 27 {
		t.Fatalf("Forward = %v, want [13 27]", y)
	}
}

func TestDenseGradCheck(t *testing.T) {
	g := mathx.NewRNG(2)
	d := NewDense("d", 4, 3, g)
	x := []float64{0.5, -1, 2, 0.1}
	y := []float64{1, 0, 1}
	dz := make([]float64, 3)
	loss := func() float64 {
		z := forward(d, x)
		return BCEWithLogits(z, y, nil, dz)
	}
	backwardPass := func() {
		z := forward(d, x)
		BCEWithLogits(z, y, nil, dz)
		backward(d, x, dz)
	}
	worst, err := CheckGradients(loss, backwardPass, withGrads(d), 1e-5, 1e-5)
	if err != nil {
		t.Fatalf("worst=%g: %v", worst, err)
	}
}

func TestDenseBackwardInputGrad(t *testing.T) {
	// Check dL/dx numerically.
	g := mathx.NewRNG(3)
	d := NewDense("d", 3, 2, g)
	withGrads(d)
	x := []float64{0.3, -0.7, 1.2}
	y := []float64{1, 0}
	dz := make([]float64, 2)
	lossAt := func(xv []float64) float64 {
		z := forward(d, xv)
		return BCEWithLogits(z, y, nil, dz)
	}
	lossAt(x)
	z := forward(d, x)
	BCEWithLogits(z, y, nil, dz)
	dx := backward(d, x, dz)
	const eps = 1e-6
	for i := range x {
		xp := mathx.Clone(x)
		xm := mathx.Clone(x)
		xp[i] += eps
		xm[i] -= eps
		gn := (lossAt(xp) - lossAt(xm)) / (2 * eps)
		if math.Abs(gn-dx[i]) > 1e-5 {
			t.Errorf("dx[%d]: analytic=%g numeric=%g", i, dx[i], gn)
		}
	}
}

func TestReLU(t *testing.T) {
	y := []float64{-1, 0, 2, math.NaN()}
	ReLU(y)
	if y[0] != 0 || y[1] != 0 || y[2] != 2 || y[3] != 0 {
		t.Fatalf("ReLU forward = %v", y)
	}
	dy := []float64{5, 5, 5, 5}
	ReLUGrad(dy, y)
	if dy[0] != 0 || dy[1] != 0 || dy[2] != 5 || dy[3] != 0 {
		t.Fatalf("ReLU backward = %v", dy)
	}
}

// TestDropoutInference: without dropout (p = 0, as a model configured
// without it, and as inference, which skips the layer) the mask is the
// identity and draws nothing from the stream.
func TestDropoutInference(t *testing.T) {
	d := NewDropout(0, mathx.NewRNG(1))
	x := []float64{1, -2, 3}
	mask := make([]float64, len(x))
	d.Mask(mask)
	y := make([]float64, len(x))
	ApplyMask(y, x, mask)
	for i := range x {
		if y[i] != x[i] {
			t.Fatal("dropout must be identity outside training")
		}
	}
	if d.g.Float64() != mathx.NewRNG(1).Float64() {
		t.Fatal("a p = 0 mask drew from the stream")
	}
}

func TestDropoutTrainingPreservesExpectation(t *testing.T) {
	d := NewDropout(0.3, mathx.NewRNG(7))
	x := []float64{1}
	y, mask := make([]float64, 1), make([]float64, 1)
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		d.Mask(mask)
		ApplyMask(y, x, mask)
		sum += y[0]
	}
	if mean := sum / float64(n); math.Abs(mean-1) > 0.03 {
		t.Fatalf("inverted dropout mean = %v, want ~1", mean)
	}
}

func TestDropoutBackwardMatchesMask(t *testing.T) {
	d := NewDropout(0.5, mathx.NewRNG(9))
	x := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	mask, y := make([]float64, len(x)), make([]float64, len(x))
	d.Mask(mask)
	ApplyMask(y, x, mask)
	dx := make([]float64, len(x))
	for i := range dx {
		dx[i] = 1
	}
	MaskGrad(dx, mask)
	for i := range x {
		if (y[i] == 0) != (dx[i] == 0) {
			t.Fatalf("mask mismatch at %d: y=%v dx=%v", i, y[i], dx[i])
		}
	}
}

func TestDropoutRejectsBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p=1")
		}
	}()
	NewDropout(1, mathx.NewRNG(1))
}

func TestLSTMGradCheck(t *testing.T) {
	g := mathx.NewRNG(4)
	l := NewLSTM("l", 3, 4, g)
	head := NewDense("head", 4, 2, g)
	seq := make([][]float64, 5)
	for t_ := range seq {
		seq[t_] = []float64{g.Normal(0, 1), g.Normal(0, 1), g.Normal(0, 1)}
	}
	y := []float64{1, 0}
	dz := make([]float64, 2)
	params := withGrads(l, head)
	// The checker perturbs the weights between calls: pack them every time.
	var tp LSTMTape
	loss := func() float64 {
		h := l.Forward(&tp, seq, l.Pack())
		z := forward(head, h)
		return BCEWithLogits(z, y, nil, dz)
	}
	backwardPass := func() {
		h := l.Forward(&tp, seq, l.Pack())
		z := forward(head, h)
		BCEWithLogits(z, y, nil, dz)
		lstmBackward(l, &tp, backward(head, h, dz))
	}
	worst, err := CheckGradients(loss, backwardPass, params, 1e-5, 2e-4)
	if err != nil {
		t.Fatalf("worst=%g: %v", worst, err)
	}
	t.Logf("LSTM gradcheck worst relative error: %g", worst)
}

func TestLSTMDeterministicGivenWeights(t *testing.T) {
	g := mathx.NewRNG(5)
	l := NewLSTM("l", 2, 3, g)
	seq := [][]float64{{1, 2}, {3, 4}}
	h1 := l.Forward(&LSTMTape{}, seq, l.Pack())
	h2 := l.Forward(&LSTMTape{}, seq, l.Pack())
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatal("LSTM forward is not deterministic")
		}
	}
}

func TestLSTMForwardEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty sequence")
		}
	}()
	l := NewLSTM("l", 2, 2, mathx.NewRNG(1))
	l.Forward(&LSTMTape{}, nil, l.Pack())
}

func TestLSTMHiddenBounded(t *testing.T) {
	// h = o*tanh(c) with o in (0,1) and |tanh| < 1, so |h| < 1 always.
	g := mathx.NewRNG(6)
	l := NewLSTM("l", 2, 4, g)
	seq := make([][]float64, 50)
	for i := range seq {
		seq[i] = []float64{g.Normal(0, 10), g.Normal(0, 10)}
	}
	h := l.Forward(&LSTMTape{}, seq, l.Pack())
	for _, v := range h {
		if math.Abs(v) >= 1 {
			t.Fatalf("hidden state out of (-1,1): %v", v)
		}
	}
}

func TestBCEWithLogitsKnownValue(t *testing.T) {
	dz := make([]float64, 1)
	loss := BCEWithLogits([]float64{0}, []float64{1}, nil, dz)
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Fatalf("loss = %v, want ln2", loss)
	}
	if math.Abs(dz[0]-(0.5-1)) > 1e-12 {
		t.Fatalf("dz = %v, want -0.5", dz[0])
	}
}

func TestBCEWithLogitsWeights(t *testing.T) {
	dz := make([]float64, 2)
	l1 := BCEWithLogits([]float64{1, -1}, []float64{1, 0}, []float64{2, 2}, dz)
	dzRef := make([]float64, 2)
	l2 := BCEWithLogits([]float64{1, -1}, []float64{1, 0}, nil, dzRef)
	if math.Abs(l1-2*l2) > 1e-12 {
		t.Fatalf("weighted loss %v != 2 * unweighted %v", l1, l2)
	}
	for i := range dz {
		if math.Abs(dz[i]-2*dzRef[i]) > 1e-12 {
			t.Fatal("weighted gradient mismatch")
		}
	}
}

func TestBCEWithLogitsStableAtExtremes(t *testing.T) {
	dz := make([]float64, 2)
	loss := BCEWithLogits([]float64{1000, -1000}, []float64{1, 0}, nil, dz)
	if math.IsNaN(loss) || math.IsInf(loss, 0) || loss > 1e-6 {
		t.Fatalf("extreme-logit loss = %v", loss)
	}
	loss = BCEWithLogits([]float64{-1000, 1000}, []float64{1, 0}, nil, dz)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("mismatched extreme-logit loss = %v", loss)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)^2 from w=0.
	p := NewParam("p", 1)
	opt := NewAdam([]*Param{p}, 0.1)
	for i := 0; i < 500; i++ {
		p.G[0] = 2 * (p.W[0] - 3)
		opt.Step()
	}
	if math.Abs(p.W[0]-3) > 1e-2 {
		t.Fatalf("Adam did not converge: w = %v", p.W[0])
	}
}

func TestAdamGradClip(t *testing.T) {
	p := NewParam("p", 1)
	opt := NewAdam([]*Param{p}, 0.001)
	opt.SetGradClip(1)
	p.G[0] = 1e9
	opt.Step()
	// With clip the first update magnitude is ~lr (bias-corrected m/sqrt(v)=1).
	if math.Abs(p.W[0]) > 0.0011 {
		t.Fatalf("clipped step too large: %v", p.W[0])
	}
}

// TestAdamReset: an optimizer that ran, clamped, and was Reset onto other
// parameters steps them exactly as a fresh NewAdam does. The gradients are
// the optimizer's: attached zeroed by NewAdam and by Reset (over what an
// accumulation left), and taken back by Release.
func TestAdamReset(t *testing.T) {
	run := func(opt *Adam, p *Param) []float64 {
		for i := 0; i < 5; i++ {
			for j := range p.G {
				p.G[j] = float64(j+1) * (p.W[j] - 3)
			}
			opt.Step()
		}
		return p.W
	}
	zero := func(what string, p *Param) {
		if len(p.G) != len(p.W) || slices.ContainsFunc(p.G, func(g float64) bool { return g != 0 }) {
			t.Fatalf("%s: gradient %v, want %d zeros", what, p.G, len(p.W))
		}
	}
	used := NewParam("used", 6)
	if used.G != nil {
		t.Fatal("NewParam attached a gradient")
	}
	opt := NewAdam([]*Param{used}, 0.5)
	zero("NewAdam", used)
	opt.SetGradClip(0.1)
	run(opt, used)
	used.G[2] = 7 // accumulated, never stepped
	opt.Release()
	if used.G != nil {
		t.Fatal("Release left the gradient attached")
	}
	a, b := NewParam("a", 6), NewParam("b", 6)
	opt.Reset([]*Param{a}, 0.01)
	zero("Reset", a)
	got, want := run(opt, a), run(NewAdam([]*Param{b}, 0.01), b)
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("w[%d] = %v after Reset, %v fresh", j, got[j], want[j])
		}
	}
}

// TestSaveParamsDeterministic: the same weights saved twice are the same
// bytes (a gob map would come out in random order).
func TestSaveParamsDeterministic(t *testing.T) {
	g := mathx.NewRNG(9)
	ps := CollectParams(NewDense("a", 3, 2, g), NewLSTM("b", 2, 3, g), NewDense("c", 4, 5, g))
	var first bytes.Buffer
	if err := SaveParams(&first, ps); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		var again bytes.Buffer
		if err := SaveParams(&again, ps); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), first.Bytes()) {
			t.Fatalf("save %d differs from the first", i+1)
		}
	}
}

// TestLoadParamsMapForm: a snapshot in the older map form still loads.
func TestLoadParamsMapForm(t *testing.T) {
	g := mathx.NewRNG(10)
	src := CollectParams(NewDense("d", 3, 2, g), NewLSTM("l", 3, 2, g))
	old := snapshot{Weights: map[string][]float64{}}
	for _, p := range src {
		old.Weights[p.Name] = p.W
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	dst := CollectParams(NewDense("d", 3, 2, mathx.NewRNG(99)), NewLSTM("l", 3, 2, mathx.NewRNG(99)))
	if err := LoadParams(&buf, dst); err != nil {
		t.Fatal(err)
	}
	for i, p := range src {
		for j, w := range p.W {
			if dst[i].W[j] != w {
				t.Fatalf("%s[%d] = %v, want %v", p.Name, j, dst[i].W[j], w)
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := mathx.NewRNG(8)
	d1 := NewDense("d", 3, 2, g)
	l1 := NewLSTM("l", 3, 2, g)
	var buf bytes.Buffer
	if err := SaveParams(&buf, CollectParams(d1, l1)); err != nil {
		t.Fatal(err)
	}
	d2 := NewDense("d", 3, 2, mathx.NewRNG(99))
	l2 := NewLSTM("l", 3, 2, mathx.NewRNG(99))
	if err := LoadParams(&buf, CollectParams(d2, l2)); err != nil {
		t.Fatal(err)
	}
	for i := range d1.w.W {
		if d1.w.W[i] != d2.w.W[i] {
			t.Fatal("dense weights did not round-trip")
		}
	}
	for i := range l1.wx.W {
		if l1.wx.W[i] != l2.wx.W[i] {
			t.Fatal("lstm weights did not round-trip")
		}
	}
}

func TestLoadParamsMissingParam(t *testing.T) {
	g := mathx.NewRNG(8)
	d := NewDense("d", 2, 2, g)
	var buf bytes.Buffer
	if err := SaveParams(&buf, d.Params()); err != nil {
		t.Fatal(err)
	}
	other := NewDense("other", 2, 2, g)
	if err := LoadParams(&buf, other.Params()); err == nil {
		t.Fatal("expected error for missing parameter name")
	}
}

// TestLoadParamsRefusesMalformed: a snapshot naming a parameter the model
// lacks, or naming one twice, is refused with an error that names it, in
// the slice form and in the older map form alike.
func TestLoadParamsRefusesMalformed(t *testing.T) {
	d := NewDense("d", 2, 2, mathx.NewRNG(8))
	w, b := namedWeights{"d.w", d.w.W}, namedWeights{"d.b", d.b.W}
	extra := namedWeights{"e.w", []float64{1}}
	for _, c := range []struct {
		name string
		snap snapshot
		want string // "" loads; else the error names this parameter
	}{
		{"slice", snapshot{Params: []namedWeights{w, b}}, ""},
		{"slice unknown", snapshot{Params: []namedWeights{w, b, extra}}, `"e.w"`},
		{"slice duplicate", snapshot{Params: []namedWeights{w, b, w}}, `"d.w"`},
		{"map", snapshot{Weights: map[string][]float64{"d.w": w.W, "d.b": b.W}}, ""},
		{"map unknown", snapshot{Weights: map[string][]float64{"d.w": w.W, "d.b": b.W, "e.w": extra.W}}, `"e.w"`},
		{"slice NaN", snapshot{Params: []namedWeights{w, {"d.b", []float64{0, math.NaN()}}}}, `"d.b"`},
		{"slice +Inf", snapshot{Params: []namedWeights{{"d.w", []float64{0, 0, math.Inf(1), 0}}, b}}, `"d.w"`},
		{"map NaN", snapshot{Weights: map[string][]float64{"d.w": {math.NaN(), 0, 0, 0}, "d.b": b.W}}, `"d.w"`},
		{"map -Inf", snapshot{Weights: map[string][]float64{"d.w": w.W, "d.b": {math.Inf(-1), 0}}}, `"d.b"`},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(c.snap); err != nil {
			t.Fatal(err)
		}
		err := LoadParams(&buf, NewDense("d", 2, 2, mathx.NewRNG(99)).Params())
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one naming %s", c.name, err, c.want)
		}
	}
}

func TestLoadParamsSizeMismatch(t *testing.T) {
	g := mathx.NewRNG(8)
	d := NewDense("d", 2, 2, g)
	var buf bytes.Buffer
	if err := SaveParams(&buf, d.Params()); err != nil {
		t.Fatal(err)
	}
	bigger := NewDense("d", 3, 3, g)
	if err := LoadParams(&buf, bigger.Params()); err == nil {
		t.Fatal("expected error for size mismatch")
	}
}

func TestXavierInitRange(t *testing.T) {
	g := mathx.NewRNG(10)
	w := make([]float64, 1000)
	XavierInit(w, 10, 10, g)
	limit := math.Sqrt(6.0 / 20)
	for _, v := range w {
		if math.Abs(v) > limit {
			t.Fatalf("weight %v exceeds Xavier limit %v", v, limit)
		}
	}
	if mathx.Std(w) < limit/4 {
		t.Fatal("weights suspiciously concentrated")
	}
}

// TestBCEWithLogitsRowMatchesScalar: the row form against the scalar loop
// it replaces in training's L2 loss — every gradient and the running sum
// bit for bit — on both kernel paths: random logits (values and bit
// patterns), every length 0-9 plus a horizon-long row, a nonzero starting
// sum, in place, and each special logit in every lane position.
func TestBCEWithLogitsRowMatchesScalar(t *testing.T) {
	ref := func(acc float64, z, y, w, dz []float64) float64 {
		for i := range z {
			l, d := BCEWithLogitsScalar(z[i], y[i], w[i])
			acc += l
			dz[i] = d
		}
		return acc
	}
	check := func(t *testing.T, acc float64, z, y, w []float64) {
		t.Helper()
		wantDz := make([]float64, len(z))
		want := ref(acc, z, y, w, wantDz)
		gotDz := make([]float64, len(z))
		got := BCEWithLogitsRow(acc, z, y, w, gotDz)
		inPlace := append([]float64(nil), z...)
		gotIn := BCEWithLogitsRow(acc, inPlace, y, w, inPlace)
		for i := range z {
			if math.Float64bits(gotDz[i]) != math.Float64bits(wantDz[i]) || math.Float64bits(inPlace[i]) != math.Float64bits(wantDz[i]) {
				t.Fatalf("z[%d] = %v of %v: dz %v (in place %v), scalar %v", i, z[i], z, gotDz[i], inPlace[i], wantDz[i])
			}
		}
		if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(gotIn) != math.Float64bits(want) {
			t.Fatalf("z %v: sum %v (in place %v), scalar %v", z, got, gotIn, want)
		}
	}
	g := mathx.NewRNG(46)
	row := func(n int) (z, y, w []float64) {
		z, y, w = make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range z {
			switch i % 3 {
			case 0:
				z[i] = g.Normal(0, 4)
			case 1:
				z[i] = (g.Float64()*2 - 1) * math.Ldexp(1, g.Intn(14)-4)
			default:
				z[i] = math.Float64frombits(mathx.HashU64(46, uint64(i)))
			}
			y[i] = float64(g.Intn(2))
			if i%5 == 0 {
				y[i] = g.Float64()
			}
			w[i] = g.Float64() * 2
		}
		return z, y, w
	}
	specials := []float64{0, math.Copysign(0, -1), 708, -708, 709, -709, 20.1, -20.1, 38, -38,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	onPaths(t, func(t *testing.T) {
		for trial := 0; trial < 200; trial++ {
			for n := 0; n <= 9; n++ {
				z, y, w := row(n)
				check(t, float64(trial)*0.37, z, y, w)
			}
			z, y, w := row(500)
			check(t, 1.5, z, y, w)
		}
		for _, s := range specials {
			for lane := 0; lane < 9; lane++ {
				z, y, w := row(9)
				z[lane] = s
				check(t, 0, z, y, w)
			}
		}
	})
}
