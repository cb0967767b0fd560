package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"eventhit/internal/dataset"
	"eventhit/internal/mathx"
	"eventhit/internal/nn"
	"eventhit/internal/video"
)

func tinyConfig() Config {
	return Config{
		InputDim: 3, Window: 4, Horizon: 6, NumEvents: 2,
		HiddenLSTM: 3, HiddenTrunk: 3, HiddenHead: 4,
		Dropout: 0, Seed: 3,
	}
}

func tinyRecord(g *mathx.RNG, cfg Config) dataset.Record {
	x := make([][]float64, cfg.Window)
	for i := range x {
		x[i] = make([]float64, cfg.InputDim)
		for j := range x[i] {
			x[i][j] = g.Normal(0, 1)
		}
	}
	return dataset.Record{
		X:        x,
		Label:    []bool{true, false},
		OI:       []video.Interval{{Start: 2, End: 4}, {}},
		Censored: []bool{false, false},
	}
}

func TestConfigValidate(t *testing.T) {
	good := tinyConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{}, // all zero
		func() Config { c := tinyConfig(); c.Horizon = 0; return c }(),
		func() Config { c := tinyConfig(); c.Dropout = 1; return c }(),
		func() Config { c := tinyConfig(); c.Dropout = -0.1; return c }(),
		func() Config { c := tinyConfig(); c.Dropout = math.NaN(); return c }(),
		func() Config { c := tinyConfig(); c.Beta = []float64{1}; return c }(),
		func() Config { c := tinyConfig(); c.Gamma = []float64{1, 2, 3}; return c }(),
		func() Config { c := tinyConfig(); c.HiddenHead = 0; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should not validate", i)
		}
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig(12, 25, 500, 3).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestModelGradCheck(t *testing.T) {
	cfg := tinyConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := tinyRecord(mathx.NewRNG(5), cfg)
	tr := m.newTrainer([]dataset.Record{rec}, DefaultTrainConfig())
	defer tr.stop()
	// The checker writes the weights between calls, as an optimizer step
	// does: each pass must declare it, or the LSTM runs on a stale pack.
	loss := func() float64 {
		m.weightsChanged()
		return m.Loss(rec)
	}
	backward := func() {
		m.weightsChanged()
		tr.accumulate([]int{0})
	}
	worst, err := nn.CheckGradients(loss, backward, m.params, 1e-5, 5e-4)
	if err != nil {
		t.Fatalf("worst=%g: %v", worst, err)
	}
	t.Logf("EventHit end-to-end gradcheck worst relative error: %g", worst)
}

func TestLossWeightsScale(t *testing.T) {
	cfg := tinyConfig()
	m1, _ := New(cfg)
	cfg2 := cfg
	cfg2.Beta = []float64{2, 2}
	cfg2.Gamma = []float64{2, 2}
	m2, _ := New(cfg2) // same seed -> identical weights
	rec := tinyRecord(mathx.NewRNG(5), cfg)
	l1, l2 := m1.Loss(rec), m2.Loss(rec)
	if diff := l2 - 2*l1; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("doubling beta/gamma should double loss: %v vs %v", l1, l2)
	}
}

func TestTrainReducesLoss(t *testing.T) {
	cfg := tinyConfig()
	m, _ := New(cfg)
	g := mathx.NewRNG(7)
	// Learnable task: label depends on the sign of the last covariate's
	// first channel; the interval sits at a fixed offset.
	recs := make([]dataset.Record, 60)
	for i := range recs {
		r := tinyRecord(g, cfg)
		pos := r.X[cfg.Window-1][0] > 0
		r.Label = []bool{pos, !pos}
		r.OI = []video.Interval{{Start: 2, End: 4}, {Start: 1, End: 3}}
		recs[i] = r
	}
	before := meanLoss(m, recs)
	tc := DefaultTrainConfig()
	tc.Epochs = 60
	tc.LR = 0.01
	if _, err := m.Train(recs, tc); err != nil {
		t.Fatal(err)
	}
	after := meanLoss(m, recs)
	if after >= before*0.7 {
		t.Fatalf("training did not reduce loss: before %.4f after %.4f", before, after)
	}
}

func meanLoss(m *Model, recs []dataset.Record) float64 {
	var s float64
	for _, r := range recs {
		s += m.Loss(r)
	}
	return s / float64(len(recs))
}

func TestTrainValidation(t *testing.T) {
	cfg := tinyConfig()
	m, _ := New(cfg)
	if _, err := m.Train(nil, DefaultTrainConfig()); err == nil {
		t.Fatal("expected error on empty training set")
	}
	rec := tinyRecord(mathx.NewRNG(1), cfg)
	bad := rec
	bad.X = bad.X[:2]
	if _, err := m.Train([]dataset.Record{bad}, DefaultTrainConfig()); err == nil {
		t.Fatal("expected error on window mismatch")
	}
	for _, c := range []struct {
		what         string
		lr, gradClip float64
	}{
		{"zero LR", 0, 5},
		{"negative LR", -1e-3, 5},
		{"NaN LR", math.NaN(), 5},
		{"infinite LR", math.Inf(1), 5},
		{"negative GradClip", 3e-3, -1},
		{"NaN GradClip", 3e-3, math.NaN()},
	} {
		tc := DefaultTrainConfig()
		tc.LR, tc.GradClip = c.lr, c.gradClip
		if _, err := m.Train([]dataset.Record{rec}, tc); err == nil {
			t.Errorf("expected error on %s", c.what)
		}
	}
	short := rec
	short.Label = []bool{true}
	short.OI = short.OI[:1]
	if _, err := m.Train([]dataset.Record{short}, DefaultTrainConfig()); err == nil {
		t.Fatal("expected error on event-count mismatch")
	}
}

// TestTrainParallelismValidation: one loop trains, so any Parallelism but 0
// is refused, not ignored.
func TestTrainParallelismValidation(t *testing.T) {
	cfg := tinyConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := tinyRecord(mathx.NewRNG(1), cfg)
	for _, p := range []int{-1, 1, 4} {
		tc := DefaultTrainConfig()
		tc.Parallelism = p
		if _, err := m.Train([]dataset.Record{rec}, tc); err == nil {
			t.Fatalf("Parallelism=%d should be rejected", p)
		}
	}
}

// TestTrainRerunStable: two fresh models from one configuration and seed,
// trained on the same records, end with bit-identical weights and loss
// trajectories. Dropout is on, so the masks' stream is covered too, and the
// record count is not a multiple of the batch size, so the short last batch
// is too.
func TestTrainRerunStable(t *testing.T) {
	cfg := tinyConfig()
	cfg.Dropout = 0.25
	g := mathx.NewRNG(11)
	recs := make([]dataset.Record, 26)
	for i := range recs {
		recs[i] = tinyRecord(g, cfg)
	}
	run := func() (TrainStats, *Model) {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := m.Train(recs, TrainConfig{Epochs: 4, BatchSize: 8, LR: 3e-3, GradClip: 5, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return stats, m
	}
	s1, m1 := run()
	s2, m2 := run()
	if len(s1.EpochLoss) != 4 {
		t.Fatalf("trajectory length %d, want 4", len(s1.EpochLoss))
	}
	for e := range s1.EpochLoss {
		if s1.EpochLoss[e] != s2.EpochLoss[e] {
			t.Errorf("epoch %d loss differs across reruns: %v vs %v", e, s1.EpochLoss[e], s2.EpochLoss[e])
		}
	}
	for i := range m1.params {
		for j, w := range m1.params[i].W {
			if w != m2.params[i].W[j] {
				t.Fatalf("param %s[%d] differs across reruns: %v vs %v", m1.params[i].Name, j, w, m2.params[i].W[j])
			}
		}
	}
}

// trainRecords returns n records for cfg with covariates scaled by scale,
// every event present in some of them with an interval inside the horizon.
func trainRecords(g *mathx.RNG, cfg Config, n int, scale float64) []dataset.Record {
	recs := make([]dataset.Record, n)
	for i := range recs {
		x := camera(g, cfg.Window, cfg.InputDim)
		for _, row := range x {
			mathx.Scale(scale, row)
		}
		r := dataset.Record{X: x, Label: make([]bool, cfg.NumEvents), OI: make([]video.Interval, cfg.NumEvents), Censored: make([]bool, cfg.NumEvents)}
		for k := range r.Label {
			if r.Label[k] = g.Intn(2) == 0; r.Label[k] {
				start := 1 + g.Intn(cfg.Horizon)
				r.OI[k] = video.Interval{Start: start, End: start + g.Intn(cfg.Horizon-start+1)}
			}
		}
		recs[i] = r
	}
	return recs
}

// TestTrainVectorMatchesScalar: Train on mathx's vector kernels ends with
// every weight and every epoch loss bit-identical to Train on the forced
// scalar path — dropout on, a short last batch, covariates ×1 and ×400 (so
// some gates saturate and leave the vector exp's range), at the default
// widths and at widths that leave len%4 tails everywhere.
func TestTrainVectorMatchesScalar(t *testing.T) {
	if !vectorKernels {
		t.Skip("mathx did not select its vector kernels on this machine")
	}
	defer func() { vectorKernels = true }()
	odd := Config{InputDim: 5, Window: 6, Horizon: 9, NumEvents: 2, HiddenLSTM: 5, HiddenTrunk: 7, HiddenHead: 9, Dropout: 0.2, Seed: 4}
	def := DefaultConfig(12, 8, 30, 2)
	def.Dropout = 0.25
	for _, cfg := range []Config{odd, def} {
		for _, scale := range []float64{1, 400} {
			recs := trainRecords(mathx.NewRNG(int64(cfg.InputDim)), cfg, 21, scale)
			run := func(vector bool) (TrainStats, *Model) {
				vectorKernels = vector
				m, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := m.Train(recs, TrainConfig{Epochs: 3, BatchSize: 8, LR: 3e-3, GradClip: 5, Seed: 9})
				if err != nil {
					t.Fatal(err)
				}
				return stats, m
			}
			sv, mv := run(true)
			ss, ms := run(false)
			what := fmt.Sprintf("D=%d scale=%v", cfg.InputDim, scale)
			for e := range ss.EpochLoss {
				if !bitsEqual(sv.EpochLoss[e], ss.EpochLoss[e]) {
					t.Fatalf("%s: epoch %d loss %v on the vector path, %v on the scalar path", what, e, sv.EpochLoss[e], ss.EpochLoss[e])
				}
			}
			for i, p := range ms.params {
				for j, w := range p.W {
					if !bitsEqual(mv.params[i].W[j], w) {
						t.Fatalf("%s: %s[%d] = %v on the vector path, %v on the scalar path", what, p.Name, j, mv.params[i].W[j], w)
					}
				}
			}
		}
	}
}

// addGrads adds one record's weight gradients, as tp's backward pass left
// them, to the parameters' G over every row: a training step's
// accumulation for a minibatch of that one record.
func addGrads(m *Model, tp *tape) {
	one := func(v []float64) [][]float64 { return [][]float64{v} }
	das, xs, hs := tp.lstm.AppendSteps(nil, nil, nil)
	m.lstm.AccumulateGrads(das, xs, hs, 0, 4*m.cfg.HiddenLSTM)
	m.trunk.AccumulateGrads(one(tp.dzcat[:m.cfg.HiddenTrunk]), one(tp.h), 0, m.cfg.HiddenTrunk)
	for k, hd := range m.heads {
		hd.fc1.AccumulateGrads(one(tp.dhid[k]), one(tp.zcat), 0, m.cfg.HiddenHead)
		hd.fc2.AccumulateGrads(one(tp.out[k]), one(tp.hid[k]), 0, 1+m.cfg.Horizon)
	}
}

// TestTrainRepacksAfterEveryStep: Train equals its own loop replayed one
// record at a time on one goroutine — mask, forward with the LSTM's weights
// packed afresh, loss, backward, gradients added — so no forward pass
// inside Train reads a pack made before an optimizer step, and the
// minibatch's parallel phases change no bit of the serial order.
func TestTrainRepacksAfterEveryStep(t *testing.T) {
	cfg := DefaultConfig(12, 8, 30, 2)
	cfg.Dropout = 0.25
	recs := trainRecords(mathx.NewRNG(12), cfg, 21, 1)
	tc := TrainConfig{Epochs: 2, BatchSize: 8, LR: 3e-3, GradClip: 5, Seed: 9}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Train(recs, tc)
	if err != nil {
		t.Fatal(err)
	}

	ref, _ := New(cfg)
	opt := nn.NewAdam(ref.params, tc.LR)
	opt.SetGradClip(tc.GradClip)
	g := mathx.NewRNG(tc.Seed)
	tp := ref.newTape()
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < tc.Epochs; epoch++ {
		g.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var loss float64
		inBatch := 0
		step := func() {
			for _, p := range ref.params {
				mathx.Scale(1/float64(inBatch), p.G)
			}
			opt.Step()
			inBatch = 0
		}
		for _, idx := range order {
			rec := recs[idx]
			ref.drop.Mask(tp.mask)
			ref.forward(tp, rec.X, nil, ref.lstm.Pack())
			loss += ref.recordLoss(tp.out, rec, tp.out)
			ref.backward(tp)
			addGrads(ref, tp)
			if inBatch++; inBatch == tc.BatchSize {
				step()
			}
		}
		if inBatch > 0 {
			step()
		}
		if want := loss / float64(len(recs)); !bitsEqual(stats.EpochLoss[epoch], want) {
			t.Fatalf("epoch %d loss %v, replay %v", epoch, stats.EpochLoss[epoch], want)
		}
	}
	for i, p := range ref.params {
		for j, w := range p.W {
			if !bitsEqual(m.params[i].W[j], w) {
				t.Fatalf("%s[%d] = %v, replay %v", p.Name, j, m.params[i].W[j], w)
			}
		}
	}
}

// TestAbsentHeadLogitsSkipped: a minibatch whose records leave events
// absent — where training computes only b_k's logit of that head —
// accumulates every gradient bit-identical to full forward passes over
// all 1+H logits, and Loss equals the full pass's loss.
func TestAbsentHeadLogitsSkipped(t *testing.T) {
	cfg := DefaultConfig(12, 8, 30, 3)
	recs := trainRecords(mathx.NewRNG(13), cfg, 9, 1)
	absent := 0
	for _, r := range recs {
		for _, l := range r.Label {
			if !l {
				absent++
			}
		}
	}
	if absent == 0 || absent == len(recs)*cfg.NumEvents {
		t.Fatalf("%d of %d events absent: the test needs both", absent, len(recs)*cfg.NumEvents)
	}
	m, _ := New(cfg)
	ref, _ := New(cfg)
	tr := m.newTrainer(recs, TrainConfig{Epochs: 1, BatchSize: len(recs), LR: 3e-3})
	defer tr.stop()
	batch := make([]int, len(recs))
	for i := range batch {
		batch[i] = i
	}
	tr.accumulate(batch)
	tp := ref.newTape()
	for i, rec := range recs {
		ref.drop.Mask(tp.mask)
		ref.forward(tp, rec.X, nil, ref.packedLSTM())
		full := ref.recordLoss(tp.out, rec, tp.out)
		if !bitsEqual(tr.tapes[i].loss, full) {
			t.Fatalf("record %d: loss %v, full forward %v", i, tr.tapes[i].loss, full)
		}
		ref.backward(tp)
		addGrads(ref, tp)
		if got := m.Loss(rec); !bitsEqual(got, ref.Loss(rec)) {
			t.Fatalf("record %d: Loss %v differs between identical models", i, got)
		}
	}
	for i, p := range ref.params {
		for j, g := range p.G {
			if !bitsEqual(m.params[i].G[j], g) {
				t.Fatalf("%s[%d] gradient %v, full forward %v", p.Name, j, m.params[i].G[j], g)
			}
		}
	}
	// Loss with dropout off, against a full pass without a mask.
	tp.mask = nil
	for i, rec := range recs {
		ref.forward(tp, rec.X, nil, ref.packedLSTM())
		if want := ref.recordLoss(tp.out, rec, tp.out); !bitsEqual(m.Loss(rec), want) {
			t.Fatalf("record %d: Loss %v, full forward %v", i, m.Loss(rec), want)
		}
	}
}

// TestTrainStepAllocs pins one warm minibatch — dispatch to the workers,
// dropout masks, forward, loss, backward, gradient accumulation and the
// Adam step — at zero allocations.
func TestTrainStepAllocs(t *testing.T) {
	cfg := DefaultConfig(12, 25, 40, 2)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := trainRecords(mathx.NewRNG(6), cfg, 8, 1)
	tr := m.newTrainer(recs, TrainConfig{Epochs: 1, BatchSize: len(recs), LR: 3e-3, GradClip: 5})
	defer tr.stop()
	batch := []int{3, 1, 4, 0, 5, 2, 6, 7}
	tr.minibatch(batch) // warm the tapes and the gradient lists
	if n := testing.AllocsPerRun(20, func() { tr.minibatch(batch) }); n != 0 {
		t.Errorf("a minibatch of %d records with %d helpers allocates %.1f per run, want 0", len(batch), tr.helpers, n)
	}
}

// TestModelClone checks the clone contract// TestModelClone checks the clone contract: identical outputs, fully
// independent parameter storage.
func TestModelClone(t *testing.T) {
	cfg := tinyConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := tinyRecord(mathx.NewRNG(9), cfg)
	c := m.Clone()
	if want, got := m.Loss(rec), c.Loss(rec); want != got {
		t.Fatalf("clone loss %v differs from original %v", got, want)
	}
	c.params[0].W[0] += 1
	if m.params[0].W[0] == c.params[0].W[0] {
		t.Fatal("clone shares weight storage with the original")
	}
}

func TestPredictShapesAndRanges(t *testing.T) {
	cfg := tinyConfig()
	m, _ := New(cfg)
	rec := tinyRecord(mathx.NewRNG(9), cfg)
	out := m.Predict(rec.X)
	if len(out.B) != cfg.NumEvents || len(out.Theta) != cfg.NumEvents {
		t.Fatalf("shapes B=%d Theta=%d", len(out.B), len(out.Theta))
	}
	for k := range out.B {
		if out.B[k] < 0 || out.B[k] > 1 {
			t.Fatalf("B[%d] = %v", k, out.B[k])
		}
		if len(out.Theta[k]) != cfg.Horizon {
			t.Fatalf("Theta[%d] len %d", k, len(out.Theta[k]))
		}
		for v, p := range out.Theta[k] {
			if p < 0 || p > 1 {
				t.Fatalf("Theta[%d][%d] = %v", k, v, p)
			}
		}
	}
}

func TestPredictDeterministic(t *testing.T) {
	cfg := tinyConfig()
	cfg.Dropout = 0.5 // must be disabled at inference
	m, _ := New(cfg)
	rec := tinyRecord(mathx.NewRNG(2), cfg)
	a, b := m.Predict(rec.X), m.Predict(rec.X)
	for k := range a.B {
		if a.B[k] != b.B[k] {
			t.Fatal("Predict must be deterministic (dropout off)")
		}
	}
}

func TestDecodeExistence(t *testing.T) {
	out := Output{B: []float64{0.7, 0.3, 0.5}}
	got := DecodeExistence(out, 0.5)
	if !got[0] || got[1] || !got[2] {
		t.Fatalf("DecodeExistence = %v", got)
	}
}

func TestDecodeInterval(t *testing.T) {
	iv, ok := DecodeInterval([]float64{0.1, 0.6, 0.4, 0.8, 0.2}, 0.5)
	if !ok || iv != (video.Interval{Start: 2, End: 4}) {
		t.Fatalf("DecodeInterval = %v %v", iv, ok)
	}
	// Gap in the middle still yields min..max (Eq. 6).
	iv, ok = DecodeInterval([]float64{0.9, 0.1, 0.1, 0.9}, 0.5)
	if !ok || iv != (video.Interval{Start: 1, End: 4}) {
		t.Fatalf("gappy DecodeInterval = %v %v", iv, ok)
	}
	// Nothing passes: degenerate argmax fallback.
	iv, ok = DecodeInterval([]float64{0.1, 0.3, 0.2}, 0.5)
	if ok || iv != (video.Interval{Start: 2, End: 2}) {
		t.Fatalf("fallback DecodeInterval = %v %v", iv, ok)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := tinyConfig()
	m, _ := New(cfg)
	rec := tinyRecord(mathx.NewRNG(4), cfg)
	want := m.Predict(rec.X)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := m2.Predict(rec.X)
	for k := range want.B {
		if want.B[k] != got.B[k] {
			t.Fatal("loaded model predicts differently")
		}
		for v := range want.Theta[k] {
			if want.Theta[k][v] != got.Theta[k][v] {
				t.Fatal("loaded model theta differs")
			}
		}
	}
	if m2.NumParams() != m.NumParams() {
		t.Fatal("param count mismatch")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestCensoredRecordLoss(t *testing.T) {
	// A censored event with OI ending exactly at H must contribute a finite
	// loss (the outside set may be small but non-negative).
	cfg := tinyConfig()
	m, _ := New(cfg)
	rec := tinyRecord(mathx.NewRNG(11), cfg)
	rec.Label = []bool{true, false}
	rec.OI = []video.Interval{{Start: 1, End: cfg.Horizon}, {}}
	rec.Censored = []bool{true, false}
	l := m.Loss(rec)
	if l <= 0 || l != l { // NaN check
		t.Fatalf("censored loss = %v", l)
	}
}

func TestDecodeIntervalsMultiInstance(t *testing.T) {
	theta := []float64{0.9, 0.8, 0.1, 0.1, 0.7, 0.9, 0.1, 0.6}
	got := DecodeIntervals(theta, 0.5, 0)
	want := []video.Interval{{Start: 1, End: 2}, {Start: 5, End: 6}, {Start: 8, End: 8}}
	if len(got) != len(want) {
		t.Fatalf("DecodeIntervals = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DecodeIntervals[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDecodeIntervalsMergeGap(t *testing.T) {
	theta := []float64{0.9, 0.1, 0.9, 0.1, 0.1, 0.9}
	// gap 1 between runs 1 and 3: merged at mergeGap>=1; gap 2 before 6.
	got := DecodeIntervals(theta, 0.5, 1)
	want := []video.Interval{{Start: 1, End: 3}, {Start: 6, End: 6}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("mergeGap=1: %v", got)
	}
	// Huge merge gap degenerates to DecodeInterval's single span.
	single := DecodeIntervals(theta, 0.5, len(theta))
	span, ok := DecodeInterval(theta, 0.5)
	if !ok || len(single) != 1 || single[0] != span {
		t.Fatalf("degenerate case: %v vs %v", single, span)
	}
}

func TestDecodeIntervalsEmpty(t *testing.T) {
	if got := DecodeIntervals([]float64{0.1, 0.2}, 0.5, 0); len(got) != 0 {
		t.Fatalf("expected empty, got %v", got)
	}
	if got := DecodeIntervals(nil, 0.5, -5); len(got) != 0 {
		t.Fatalf("nil theta: %v", got)
	}
}

func TestDecodeIntervalsCoverDecodedSpan(t *testing.T) {
	// Union of multi-instance runs always lies within the single span and
	// shares its endpoints.
	g := mathx.NewRNG(17)
	for trial := 0; trial < 200; trial++ {
		theta := make([]float64, 20)
		for i := range theta {
			theta[i] = g.Float64()
		}
		runs := DecodeIntervals(theta, 0.5, 0)
		span, ok := DecodeInterval(theta, 0.5)
		if len(runs) == 0 {
			if ok {
				t.Fatal("span decoded but no runs")
			}
			continue
		}
		if runs[0].Start != span.Start || runs[len(runs)-1].End != span.End {
			t.Fatalf("runs %v do not share endpoints with span %v", runs, span)
		}
	}
}
