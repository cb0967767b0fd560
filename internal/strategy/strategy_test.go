package strategy

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"eventhit/internal/conformal"
	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/mathx"
	"eventhit/internal/metrics"
	"eventhit/internal/video"
)

// fixture is a trained single-event THUMOS task shared by the tests.
type fixture struct {
	ex     *features.Extractor
	splits *dataset.Splits
	bundle *Bundle
	cfg    dataset.Config
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		st := video.Generate(video.THUMOS(), mathx.NewRNG(1))
		ex, err := features.NewExtractor(st, []int{0}, features.DefaultDetector(), 1)
		if err != nil {
			panic(err)
		}
		cfg := dataset.SampleConfig{
			Config: dataset.Config{Window: 10, Horizon: 200},
			NTrain: 500, NCCalib: 300, NRCalib: 300, NTest: 300,
			TrainPosFrac: 0.5,
		}
		splits, err := dataset.Build(ex, cfg, mathx.NewRNG(2))
		if err != nil {
			panic(err)
		}
		mcfg := core.DefaultConfig(ex.Dim(), cfg.Window, cfg.Horizon, 1)
		m, err := core.New(mcfg)
		if err != nil {
			panic(err)
		}
		tc := core.DefaultTrainConfig()
		tc.Epochs = 10
		if _, err := m.Train(splits.Train, tc); err != nil {
			panic(err)
		}
		b, err := Calibrate(m, splits.CCalib, splits.RCalib)
		if err != nil {
			panic(err)
		}
		fix = &fixture{ex: ex, splits: splits, bundle: b, cfg: cfg.Config}
	})
	return fix
}

func TestOptIsPerfect(t *testing.T) {
	f := getFixture(t)
	preds := PredictAll(Opt{}, f.splits.Test)
	rec, err := metrics.REC(f.splits.Test, preds)
	if err != nil || rec != 1 {
		t.Fatalf("OPT REC = %v, %v", rec, err)
	}
	spl, err := metrics.SPL(f.splits.Test, preds, f.cfg.Horizon)
	if err != nil || spl != 0 {
		t.Fatalf("OPT SPL = %v, %v", spl, err)
	}
	if (Opt{}).Name() != "OPT" {
		t.Fatal("name")
	}
}

func TestBFIsExhaustive(t *testing.T) {
	f := getFixture(t)
	bf := BF{Horizon: f.cfg.Horizon}
	preds := PredictAll(bf, f.splits.Test)
	rec, _ := metrics.REC(f.splits.Test, preds)
	spl, _ := metrics.SPL(f.splits.Test, preds, f.cfg.Horizon)
	if rec != 1 {
		t.Fatalf("BF REC = %v, want 1", rec)
	}
	if spl < 0.999 {
		t.Fatalf("BF SPL = %v, want ~1", spl)
	}
}

func TestEHOIsUseful(t *testing.T) {
	f := getFixture(t)
	preds := PredictAll(f.bundle.EHO(), f.splits.Test)
	rec, err := metrics.REC(f.splits.Test, preds)
	if err != nil {
		t.Fatal(err)
	}
	spl, _ := metrics.SPL(f.splits.Test, preds, f.cfg.Horizon)
	t.Logf("EHO: REC=%.3f SPL=%.3f", rec, spl)
	if rec < 0.4 {
		t.Errorf("EHO REC = %.3f: model failed to learn the task", rec)
	}
	if spl > 0.5 {
		t.Errorf("EHO SPL = %.3f: model relays far too much", spl)
	}
}

func TestEHCRecallMonotoneInConfidence(t *testing.T) {
	f := getFixture(t)
	prev := -1.0
	for _, c := range []float64{0.5, 0.7, 0.9, 0.99} {
		preds := PredictAll(f.bundle.EHC(c), f.splits.Test)
		recc, err := metrics.RECc(f.splits.Test, preds)
		if err != nil {
			t.Fatal(err)
		}
		if recc < prev-1e-9 {
			t.Fatalf("REC_c decreased at c=%v: %.3f < %.3f", c, recc, prev)
		}
		prev = recc
	}
}

// The conformal guarantee is marginal: records anchored near the same
// event instance are correlated, so a single stream's coverage fluctuates.
// This test therefore averages REC_c over several independent streams and
// models, mirroring the paper's 10-trial averaging.
func TestEHCCoverageNearConfidence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial training in -short mode")
	}
	const trials = 5
	sums := map[float64]float64{0.8: 0, 0.9: 0}
	for trial := 0; trial < trials; trial++ {
		st := video.Generate(video.THUMOS(), mathx.NewRNG(int64(100+trial)))
		ex, err := features.NewExtractor(st, []int{0}, features.DefaultDetector(), int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		cfg := dataset.SampleConfig{
			Config: dataset.Config{Window: 10, Horizon: 200},
			NTrain: 300, NCCalib: 300, NRCalib: 100, NTest: 300,
			TrainPosFrac: 0.5,
		}
		splits, err := dataset.Build(ex, cfg, mathx.NewRNG(int64(200+trial)))
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.New(core.DefaultConfig(ex.Dim(), cfg.Window, cfg.Horizon, 1))
		if err != nil {
			t.Fatal(err)
		}
		tc := core.DefaultTrainConfig()
		tc.Epochs = 8
		if _, err := m.Train(splits.Train, tc); err != nil {
			t.Fatal(err)
		}
		b, err := Calibrate(m, splits.CCalib, splits.RCalib)
		if err != nil {
			t.Fatal(err)
		}
		for c := range sums {
			preds := PredictAll(b.EHC(c), splits.Test)
			recc, err := metrics.RECc(splits.Test, preds)
			if err != nil {
				t.Fatal(err)
			}
			sums[c] += recc
		}
	}
	for c, s := range sums {
		mean := s / trials
		t.Logf("EHC(c=%v): mean REC_c over %d trials = %.3f", c, trials, mean)
		if mean < c-0.07 {
			t.Errorf("EHC(c=%v) mean REC_c=%.3f below the conformal guarantee", c, mean)
		}
	}
}

func TestEHRWidensIntervals(t *testing.T) {
	f := getFixture(t)
	base := PredictAll(f.bundle.EHO(), f.splits.Test)
	wide := PredictAll(f.bundle.EHR(0.9), f.splits.Test)
	baseFrames := metrics.FramesSent(base)
	wideFrames := metrics.FramesSent(wide)
	if wideFrames <= baseFrames {
		t.Fatalf("EHR(0.9) sent %d frames, EHO sent %d — conformal widening had no effect",
			wideFrames, baseFrames)
	}
	rBase, _ := metrics.RECr(f.splits.Test, base)
	rWide, _ := metrics.RECr(f.splits.Test, wide)
	if rWide < rBase-1e-9 {
		t.Fatalf("EHR REC_r %.3f below EHO %.3f", rWide, rBase)
	}
}

func TestEHRIntervalsNestedInAlpha(t *testing.T) {
	f := getFixture(t)
	lo := PredictAll(f.bundle.EHR(0.3), f.splits.Test)
	hi := PredictAll(f.bundle.EHR(0.95), f.splits.Test)
	for i := range lo {
		for k := range lo[i].Occur {
			if lo[i].Occur[k] != hi[i].Occur[k] {
				t.Fatal("EHR must not change existence decisions")
			}
			if !lo[i].Occur[k] {
				continue
			}
			if hi[i].OI[k].Start > lo[i].OI[k].Start || hi[i].OI[k].End < lo[i].OI[k].End {
				t.Fatalf("alpha=0.95 interval %v does not contain alpha=0.3 interval %v",
					hi[i].OI[k], lo[i].OI[k])
			}
		}
	}
}

func TestEHCRReachesHighRecall(t *testing.T) {
	f := getFixture(t)
	preds := PredictAll(f.bundle.EHCR(0.99, 0.98), f.splits.Test)
	rec, _ := metrics.REC(f.splits.Test, preds)
	spl, _ := metrics.SPL(f.splits.Test, preds, f.cfg.Horizon)
	t.Logf("EHCR(0.99,0.98): REC=%.3f SPL=%.3f", rec, spl)
	if rec < 0.9 {
		t.Errorf("EHCR at maximal knobs reaches only REC=%.3f; the paper's headline is ~1", rec)
	}
	if spl > 0.98 {
		t.Errorf("EHCR SPL=%.3f indistinguishable from brute force", spl)
	}
	ehoPreds := PredictAll(f.bundle.EHO(), f.splits.Test)
	ehoRec, _ := metrics.REC(f.splits.Test, ehoPreds)
	if rec <= ehoRec {
		t.Errorf("EHCR REC %.3f not above EHO %.3f", rec, ehoRec)
	}
}

func TestStrategyNames(t *testing.T) {
	f := getFixture(t)
	if f.bundle.EHO().Name() != "EHO" || f.bundle.EHC(0.9).Name() != "EHC" ||
		f.bundle.EHR(0.9).Name() != "EHR" || f.bundle.EHCR(0.9, 0.9).Name() != "EHCR" {
		t.Fatal("strategy names wrong")
	}
}

func TestCalibrateValidation(t *testing.T) {
	f := getFixture(t)
	if _, err := Calibrate(f.bundle.Model, nil, f.splits.RCalib); err == nil {
		t.Fatal("expected error on empty c-calib")
	}
	if _, err := Calibrate(f.bundle.Model, f.splits.CCalib, nil); err == nil {
		t.Fatal("expected error on empty r-calib")
	}
}

func TestCoxFitAndPredict(t *testing.T) {
	f := getFixture(t)
	cox, err := FitCox(f.splits.Train, f.cfg.Horizon, 0.5, DefaultCoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	if cox.Name() != "COX" {
		t.Fatal("name")
	}
	preds := PredictAll(cox, f.splits.Test)
	rec, _ := metrics.REC(f.splits.Test, preds)
	spl, _ := metrics.SPL(f.splits.Test, preds, f.cfg.Horizon)
	t.Logf("COX(0.5): REC=%.3f SPL=%.3f", rec, spl)
	// Predicted intervals always run to the horizon end.
	for i, p := range preds {
		for k, occ := range p.Occur {
			if occ && p.OI[k].End != f.cfg.Horizon {
				t.Fatalf("record %d event %d: Cox interval %v must end at H", i, k, p.OI[k])
			}
		}
	}
}

func TestCoxTauMonotone(t *testing.T) {
	f := getFixture(t)
	cox, err := FitCox(f.splits.Train, f.cfg.Horizon, 0.5, DefaultCoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	prevSent := 1 << 60
	for _, tau := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		preds := PredictAll(cox.WithTau(tau), f.splits.Test)
		sent := metrics.FramesSent(preds)
		if sent > prevSent {
			t.Fatalf("tau=%v sent %d frames, more than at lower tau (%d)", tau, sent, prevSent)
		}
		prevSent = sent
	}
}

func TestCoxValidation(t *testing.T) {
	if _, err := FitCox(nil, 200, 0.5, DefaultCoxConfig()); err == nil {
		t.Fatal("expected error on empty training set")
	}
	f := getFixture(t)
	// All-negative training set: no occurrences to fit.
	neg := make([]dataset.Record, 0, 16)
	for _, r := range f.splits.Train {
		if r.NumPositive() == 0 {
			neg = append(neg, r)
			if len(neg) == 16 {
				break
			}
		}
	}
	if _, err := FitCox(neg, f.cfg.Horizon, 0.5, DefaultCoxConfig()); err == nil {
		t.Fatal("expected error with no occurrences")
	}
}

func TestVQSThresholdMonotone(t *testing.T) {
	f := getFixture(t)
	v, err := NewVQS(f.ex, f.cfg.Horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Name() != "VQS" {
		t.Fatal("name")
	}
	prevSent := 1 << 60
	for _, tau := range []int{0, 20, 60, 120, 200} {
		preds := PredictAll(v.WithTau(tau), f.splits.Test)
		sent := metrics.FramesSent(preds)
		if sent > prevSent {
			t.Fatalf("tau=%d sent more frames than a lower threshold", tau)
		}
		prevSent = sent
	}
	// tau = horizon: impossible to exceed, nothing relayed.
	preds := PredictAll(v.WithTau(f.cfg.Horizon), f.splits.Test)
	if metrics.FramesSent(preds) != 0 {
		t.Fatal("tau=H must relay nothing")
	}
}

func TestVQSRelaysWholeHorizons(t *testing.T) {
	f := getFixture(t)
	v, _ := NewVQS(f.ex, f.cfg.Horizon, 40)
	preds := PredictAll(v, f.splits.Test)
	for _, p := range preds {
		for k, occ := range p.Occur {
			if occ && p.OI[k] != (video.Interval{Start: 1, End: f.cfg.Horizon}) {
				t.Fatal("VQS must relay whole horizons")
			}
		}
	}
}

func TestVQSValidation(t *testing.T) {
	f := getFixture(t)
	if _, err := NewVQS(f.ex, 0, 0); err == nil {
		t.Fatal("expected error for horizon 0")
	}
	if _, err := NewVQS(f.ex, 100, 101); err == nil {
		t.Fatal("expected error for tau > horizon")
	}
}

func TestAppVAEFitsOnDenseData(t *testing.T) {
	// Breakfast-like density is what APP-VAE needs; run a compact variant.
	st := video.Generate(video.Breakfast(), mathx.NewRNG(3))
	ex, err := features.NewExtractor(st, []int{0}, features.DefaultDetector(), 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataset.SampleConfig{
		Config: dataset.Config{Window: 50, Horizon: 500},
		NTrain: 300, NCCalib: 1, NRCalib: 1, NTest: 200,
		TrainPosFrac: 0.5,
	}
	splits, err := dataset.Build(ex, cfg, mathx.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	acfg := DefaultAppVAEConfig()
	acfg.Window = 1500
	a, err := fitAppVAE(ex, splits.Train, cfg.Horizon, acfg, 30)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "APP-VAE1500" || a.window != 1500 {
		t.Fatalf("name/window: %s %d", a.Name(), a.window)
	}
	preds := PredictAll(a, splits.Test)
	rec, err := metrics.REC(splits.Test, preds)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("APP-VAE1500: REC=%.3f", rec)
	for _, p := range preds {
		for k, occ := range p.Occur {
			if occ && (p.OI[k].Start < 1 || p.OI[k].End > cfg.Horizon || p.OI[k].Len() == 0) {
				t.Fatalf("invalid interval %v", p.OI[k])
			}
		}
	}
}

func TestAppVAEValidation(t *testing.T) {
	f := getFixture(t)
	if _, err := FitAppVAE(f.ex, nil, 200, DefaultAppVAEConfig()); err == nil {
		t.Fatal("expected error on empty training set")
	}
	bad := DefaultAppVAEConfig()
	bad.Window = 0
	if _, err := FitAppVAE(f.ex, f.splits.Train, 200, bad); err == nil {
		t.Fatal("expected error on zero window")
	}
}

func TestPredictRunsMultiInstance(t *testing.T) {
	f := getFixture(t)
	// Across the test set, per-run relays must (a) never predict positive
	// where C-CLASSIFY says negative, (b) stay within the horizon, and (c)
	// relay no more frames than the single-span decoding.
	spanFrames, runFrames := 0, 0
	for _, rec := range f.splits.Test {
		runs := f.bundle.PredictRuns(rec, 0.9, 2)
		single := PredictAll(f.bundle.EHC(0.9), []dataset.Record{rec})[0]
		for k := range runs {
			if (runs[k] != nil) != single.Occur[k] {
				t.Fatal("PredictRuns existence decision differs from EHC")
			}
			for _, r := range runs[k] {
				if r.Start < 1 || r.End > f.cfg.Horizon || r.Len() == 0 {
					t.Fatalf("invalid run %v", r)
				}
				runFrames += r.Len()
			}
			if single.Occur[k] {
				spanFrames += single.OI[k].Len()
			}
		}
	}
	if runFrames > spanFrames {
		t.Fatalf("multi-run relays %d frames, more than the single span %d", runFrames, spanFrames)
	}
	t.Logf("frames sent: span=%d runs=%d (%.1f%% saved)", spanFrames, runFrames,
		100*(1-float64(runFrames)/float64(spanFrames)))
}

func TestPredictRunsCoverageAgainstAllInstances(t *testing.T) {
	f := getFixture(t)
	var etaSum float64
	n := 0
	for _, rec := range f.splits.Test {
		truths := dataset.HorizonInstances(f.ex, rec.Frame, f.cfg.Horizon, 0)
		if len(truths) == 0 {
			continue
		}
		runs := f.bundle.PredictRuns(rec, 0.95, 2)
		etaSum += metrics.EtaRuns(runs[0], truths)
		n++
	}
	if n == 0 {
		t.Fatal("no positive horizons")
	}
	if avg := etaSum / float64(n); avg < 0.5 {
		t.Fatalf("multi-instance coverage %.3f too low", avg)
	}
}

func TestBundleSaveLoadRoundTrip(t *testing.T) {
	f := getFixture(t)
	var buf bytes.Buffer
	if err := f.bundle.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b2, err := LoadBundle(&buf, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	// Every variant must predict identically through the round-trip.
	for _, rec := range f.splits.Test[:50] {
		a := PredictAll(f.bundle.EHCR(0.9, 0.9), []dataset.Record{rec})[0]
		b := PredictAll(b2.EHCR(0.9, 0.9), []dataset.Record{rec})[0]
		for k := range a.Occur {
			if a.Occur[k] != b.Occur[k] || a.OI[k] != b.OI[k] {
				t.Fatal("loaded bundle predicts differently")
			}
		}
	}
	if b2.Tau1 != f.bundle.Tau1 || b2.Tau2 != f.bundle.Tau2 {
		t.Fatal("thresholds did not round-trip")
	}
}

func TestLoadBundleRejectsGarbage(t *testing.T) {
	if _, err := LoadBundle(bytes.NewReader([]byte("definitely not a bundle")), 1<<20); err == nil {
		t.Fatal("expected decode error")
	}
}

// TestLoadBundleRejectsLegacyScaledStream: bundles once carried a second,
// length-normalized interval calibration between the regressor and the
// thresholds. Such a file must fail to load, not load with its thresholds
// misread.
func TestLoadBundleRejectsLegacyScaledStream(t *testing.T) {
	f := getFixture(t)
	var buf bytes.Buffer
	for _, save := range []func(io.Writer) error{f.bundle.Model.Save, f.bundle.Classifier.Save, f.bundle.Regressor.Save} {
		if err := save(&buf); err != nil {
			t.Fatal(err)
		}
	}
	legacy := []any{
		struct {
			Horizon            int
			NormStart, NormEnd [][]float64
		}{f.cfg.Horizon, [][]float64{{0.5}}, [][]float64{{0.5}}},
		struct{ Tau1, Tau2 float64 }{f.bundle.Tau1, f.bundle.Tau2},
	}
	for _, v := range legacy {
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	_, err := LoadBundle(&buf, int64(buf.Len()))
	if err == nil || !strings.Contains(err.Error(), "older layout") {
		t.Fatalf("legacy bundle: err = %v, want the older-layout decode error", err)
	}
}

// TestLoadBundleRefusesNonFinite: a threshold, classifier score or
// regressor residual that is NaN or ±Inf is refused with an error naming
// it. A NaN τ1 would otherwise load and make the bundle never relay.
func TestLoadBundleRefusesNonFinite(t *testing.T) {
	f := getFixture(t)
	b := f.bundle
	var model bytes.Buffer
	if err := b.Model.Save(&model); err != nil {
		t.Fatal(err)
	}
	type classifier struct{ PosScores [][]float64 }
	type regressor struct {
		Horizon          int
		StartRes, EndRes [][]float64
	}
	type thresholds struct{ Tau1, Tau2 float64 }
	scores := [][]float64{{0.2, 0.5, 0.9}}
	res := [][]float64{{1, 2, 3}}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name    string
		streams []any
		want    string
	}{
		{"tau1-nan", []any{classifier{scores}, regressor{f.cfg.Horizon, res, res}, thresholds{nan, b.Tau2}}, "threshold Tau1 is NaN"},
		{"tau2-inf", []any{classifier{scores}, regressor{f.cfg.Horizon, res, res}, thresholds{b.Tau1, inf}}, "threshold Tau2 is +Inf"},
		{"score-nan", []any{classifier{[][]float64{{0.2, nan}}}, regressor{f.cfg.Horizon, res, res}, thresholds{b.Tau1, b.Tau2}}, "classifier score 1 of event 0 is NaN"},
		{"start-residual-inf", []any{classifier{scores}, regressor{f.cfg.Horizon, [][]float64{{inf}}, res}, thresholds{b.Tau1, b.Tau2}}, "regressor start residual 0 of event 0 is +Inf"},
		{"end-residual-neg-inf", []any{classifier{scores}, regressor{f.cfg.Horizon, res, [][]float64{{1, -inf}}}, thresholds{b.Tau1, b.Tau2}}, "regressor end residual 1 of event 0 is -Inf"},
	} {
		t.Run(c.name, func(t *testing.T) {
			buf := bytes.NewBuffer(bytes.Clone(model.Bytes()))
			for _, v := range c.streams {
				if err := gob.NewEncoder(buf).Encode(v); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := LoadBundle(buf, int64(buf.Len())); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("LoadBundle = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

func TestBundleSaveLoadThroughFile(t *testing.T) {
	// gob decoders over-read from plain files unless loaders normalize the
	// reader; this guards the fix with a real *os.File round-trip.
	f := getFixture(t)
	path := filepath.Join(t.TempDir(), "bundle.gob")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.bundle.Save(out); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	in, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	fi, err := in.Stat()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := LoadBundle(in, fi.Size())
	if err != nil {
		t.Fatal(err)
	}
	rec := f.splits.Test[0]
	a := f.bundle.EHCR(0.9, 0.9).Predict(rec)
	b := b2.EHCR(0.9, 0.9).Predict(rec)
	for k := range a.Occur {
		if a.Occur[k] != b.Occur[k] || a.OI[k] != b.OI[k] {
			t.Fatal("file round-trip changed predictions")
		}
	}
}

func TestCalibrateMultiEvent(t *testing.T) {
	// Two-event bundle calibrated on synthetic records (no training needed:
	// calibration only evaluates the model).
	cfg := core.Config{
		InputDim: 4, Window: 3, Horizon: 20, NumEvents: 2,
		HiddenLSTM: 4, HiddenTrunk: 4, HiddenHead: 6, Seed: 9,
	}
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := mathx.NewRNG(4)
	mk := func(l0, l1 bool) dataset.Record {
		x := make([][]float64, cfg.Window)
		for i := range x {
			x[i] = []float64{g.Float64(), g.Float64(), g.Float64(), g.Float64()}
		}
		return dataset.Record{
			X: x, Label: []bool{l0, l1},
			OI:       []video.Interval{{Start: 2, End: 6}, {Start: 5, End: 9}},
			Censored: []bool{false, false},
		}
	}
	var calib []dataset.Record
	for i := 0; i < 30; i++ {
		calib = append(calib, mk(i%2 == 0, i%3 == 0))
	}
	b, err := Calibrate(m, calib, calib)
	if err != nil {
		t.Fatal(err)
	}
	if b.Classifier.NumEvents() != 2 || b.Regressor.NumEvents() != 2 {
		t.Fatal("per-event calibration incomplete")
	}
	// Round-trip the two-event bundle.
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b2, err := LoadBundle(&buf, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	rec := mk(true, false)
	a := b.EHCR(0.9, 0.9).Predict(rec)
	c := b2.EHCR(0.9, 0.9).Predict(rec)
	for k := range a.Occur {
		if a.Occur[k] != c.Occur[k] || a.OI[k] != c.OI[k] {
			t.Fatal("two-event bundle did not round-trip")
		}
	}
	// Calibration must fail cleanly when one event never occurs.
	var onesided []dataset.Record
	for i := 0; i < 10; i++ {
		onesided = append(onesided, mk(true, false))
	}
	if _, err := Calibrate(m, onesided, onesided); err == nil {
		t.Fatal("expected error when an event has no positive calibration records")
	}
}

// TestBundleClone: the clone predicts identically but owns its model, so
// mutating (retraining) the original cannot leak into the clone.
func TestBundleClone(t *testing.T) {
	f := getFixture(t)
	c := f.bundle.Clone()
	if c.Model == f.bundle.Model {
		t.Fatal("Clone shares the model")
	}
	if c.Predictor != nil {
		t.Fatal("Clone must drop the predictor view")
	}
	if c.Classifier != f.bundle.Classifier || c.Regressor != f.bundle.Regressor {
		t.Fatal("Clone must share the immutable calibration state")
	}
	for _, rec := range f.splits.Test[:25] {
		a := f.bundle.EHCR(0.9, 0.9).Predict(rec)
		b := c.EHCR(0.9, 0.9).Predict(rec)
		for k := range a.Occur {
			if a.Occur[k] != b.Occur[k] || a.OI[k] != b.OI[k] {
				t.Fatal("clone predicts differently")
			}
		}
	}
}

// TestWithClassifier: replacing the C-CLASSIFY calibration changes only
// the existence rule; validation rejects a classifier with the wrong
// event count and a nil one.
func TestWithClassifier(t *testing.T) {
	f := getFixture(t)
	// A replacement calibrated on the same records is behaviorally
	// identical; rebuild one from the calibration split.
	calibB := make([][]float64, len(f.splits.CCalib))
	calibL := make([][]bool, len(f.splits.CCalib))
	for i, r := range f.splits.CCalib {
		out := f.bundle.Model.Predict(r.X)
		calibB[i] = append([]float64(nil), out.B...)
		calibL[i] = r.Label
	}
	cls, err := conformal.NewClassifier(calibB, calibL)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := f.bundle.WithClassifier(cls)
	if err != nil {
		t.Fatal(err)
	}
	if nb.Classifier != cls {
		t.Fatal("classifier not installed")
	}
	if nb.Model != f.bundle.Model || nb.Regressor != f.bundle.Regressor {
		t.Fatal("WithClassifier must leave model and regressor shared")
	}
	for _, rec := range f.splits.Test[:25] {
		a := f.bundle.EHCR(0.9, 0.9).Predict(rec)
		b := nb.EHCR(0.9, 0.9).Predict(rec)
		for k := range a.Occur {
			if a.Occur[k] != b.Occur[k] {
				t.Fatal("same-calibration replacement changed decisions")
			}
		}
	}
	if _, err := f.bundle.WithClassifier(nil); err == nil {
		t.Fatal("expected error for nil classifier")
	}
	twoEv, err := conformal.NewClassifier(
		[][]float64{{0.5, 0.5}}, [][]bool{{true, true}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.bundle.WithClassifier(twoEv); err == nil {
		t.Fatal("expected error for event-count mismatch")
	}
}

// TestPredictScored: one forward pass yields both the EHCR decision and
// the raw existence scores; the decision matches EHCR exactly and the
// scores match a direct model readout, copied (not scratch-aliased).
func TestPredictScored(t *testing.T) {
	f := getFixture(t)
	ehcr := f.bundle.EHCR(0.9, 0.9)
	for _, rec := range f.splits.Test[:25] {
		p, scores := f.bundle.PredictScored(rec, 0.9, 0.9)
		want := ehcr.Predict(rec)
		for k := range p.Occur {
			if p.Occur[k] != want.Occur[k] || p.OI[k] != want.OI[k] {
				t.Fatal("PredictScored decision differs from EHCR")
			}
		}
		out := f.bundle.Model.Predict(rec.X)
		if len(scores) != len(out.B) {
			t.Fatalf("scores len %d, want %d", len(scores), len(out.B))
		}
		for k := range scores {
			if scores[k] != out.B[k] {
				t.Fatalf("score[%d] = %v, want %v", k, scores[k], out.B[k])
			}
		}
	}
	// The returned slice must be a copy: a second call may not clobber it.
	_, s1 := f.bundle.PredictScored(f.splits.Test[0], 0.9, 0.9)
	v := s1[0]
	f.bundle.PredictScored(f.splits.Test[1], 0.9, 0.9)
	if s1[0] != v {
		t.Fatal("PredictScored aliased scratch")
	}
}
