package core

import (
	"bytes"
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
	dLogits := make([][]float64, cfg.NumEvents)
	for k := range dLogits {
		dLogits[k] = make([]float64, 1+cfg.Horizon)
	}
	loss := func() float64 {
		logits := m.rawForward(rec.X)
		return m.recordLoss(logits, rec, dLogits)
	}
	backward := func() {
		logits := m.rawForward(rec.X)
		m.recordLoss(logits, rec, dLogits)
		m.backward(dLogits)
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
	tc := DefaultTrainConfig()
	tc.LR = 0
	if _, err := m.Train([]dataset.Record{rec}, tc); err == nil {
		t.Fatal("expected error on zero LR")
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

// TestModelClone checks the clone contract: identical outputs, fully
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

func TestMeanEncoderVariant(t *testing.T) {
	cfg := tinyConfig()
	cfg.Encoder = "mean"
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := tinyRecord(mathx.NewRNG(5), cfg)
	out := m.Predict(rec.X)
	if len(out.B) != cfg.NumEvents {
		t.Fatal("mean encoder predict failed")
	}
	// Gradcheck the mean-encoder path too.
	dLogits := make([][]float64, cfg.NumEvents)
	for k := range dLogits {
		dLogits[k] = make([]float64, 1+cfg.Horizon)
	}
	loss := func() float64 {
		logits := m.rawForward(rec.X)
		return m.recordLoss(logits, rec, dLogits)
	}
	backward := func() {
		logits := m.rawForward(rec.X)
		m.recordLoss(logits, rec, dLogits)
		m.backward(dLogits)
	}
	worst, err := nn.CheckGradients(loss, backward, m.params, 1e-5, 5e-4)
	if err != nil {
		t.Fatalf("mean encoder gradcheck worst=%g: %v", worst, err)
	}
}

func TestMeanEncoderSaveLoad(t *testing.T) {
	cfg := tinyConfig()
	cfg.Encoder = "mean"
	m, _ := New(cfg)
	rec := tinyRecord(mathx.NewRNG(6), cfg)
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
	if got.B[0] != want.B[0] {
		t.Fatal("mean encoder model did not round-trip")
	}
}

func TestEncoderValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.Encoder = "transformer"
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected error for unknown encoder")
	}
}

func TestMeanEncoderIsOrderInvariant(t *testing.T) {
	// The ablation's defining property: permuting the window changes
	// nothing (unlike the LSTM).
	cfg := tinyConfig()
	cfg.Encoder = "mean"
	m, _ := New(cfg)
	rec := tinyRecord(mathx.NewRNG(8), cfg)
	a := m.Predict(rec.X)
	rev := make([][]float64, len(rec.X))
	for i := range rec.X {
		rev[i] = rec.X[len(rec.X)-1-i]
	}
	// Keep the last frame identical (it is concatenated into zcat).
	rev[len(rev)-1] = rec.X[len(rec.X)-1]
	rev[0] = rec.X[0]
	// swap middle rows only
	rev[1], rev[2] = rec.X[2], rec.X[1]
	b := m.Predict(rev)
	if a.B[0] != b.B[0] {
		t.Fatalf("mean encoder should ignore frame order: %v vs %v", a.B[0], b.B[0])
	}
}

func TestGRUEncoderVariant(t *testing.T) {
	cfg := tinyConfig()
	cfg.Encoder = "gru"
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := tinyRecord(mathx.NewRNG(5), cfg)
	dLogits := make([][]float64, cfg.NumEvents)
	for k := range dLogits {
		dLogits[k] = make([]float64, 1+cfg.Horizon)
	}
	loss := func() float64 {
		logits := m.rawForward(rec.X)
		return m.recordLoss(logits, rec, dLogits)
	}
	backward := func() {
		logits := m.rawForward(rec.X)
		m.recordLoss(logits, rec, dLogits)
		m.backward(dLogits)
	}
	worst, err := nn.CheckGradients(loss, backward, m.params, 1e-5, 5e-4)
	if err != nil {
		t.Fatalf("GRU encoder gradcheck worst=%g: %v", worst, err)
	}
	// Save/load round-trip through the gru parameter names.
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Predict(rec.X).B[0] != m.Predict(rec.X).B[0] {
		t.Fatal("gru model did not round-trip")
	}
}

func TestConvEncoderVariant(t *testing.T) {
	cfg := tinyConfig()
	cfg.Encoder = "conv"
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := tinyRecord(mathx.NewRNG(5), cfg)
	dLogits := make([][]float64, cfg.NumEvents)
	for k := range dLogits {
		dLogits[k] = make([]float64, 1+cfg.Horizon)
	}
	loss := func() float64 {
		logits := m.rawForward(rec.X)
		return m.recordLoss(logits, rec, dLogits)
	}
	backward := func() {
		logits := m.rawForward(rec.X)
		m.recordLoss(logits, rec, dLogits)
		m.backward(dLogits)
	}
	worst, err := nn.CheckGradients(loss, backward, m.params, 1e-5, 5e-4)
	if err != nil {
		t.Fatalf("conv encoder gradcheck worst=%g: %v", worst, err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err != nil {
		t.Fatal(err)
	}
}
