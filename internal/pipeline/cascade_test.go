package pipeline

import (
	"math"
	"strings"
	"sync"
	"testing"

	"eventhit/internal/cascade"
	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/mathx"
	"eventhit/internal/obs"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

// cascFixture shares one trained ladder across the pipeline tests (rung
// training dominates the test's cost; marshalling is cheap).
type cascFixture struct {
	bundle *strategy.Bundle
	casc   *cascade.Cascade
}

var (
	cascOnce sync.Once
	cascFix  *cascFixture
)

func getCascade(t *testing.T) *cascFixture {
	t.Helper()
	cascOnce.Do(func() {
		st := video.Generate(video.THUMOS(), mathx.NewRNG(1))
		ex, err := features.NewExtractor(st, []int{0}, features.DefaultDetector(), 1)
		if err != nil {
			panic(err)
		}
		cfg := dataset.SampleConfig{
			Config: dataset.Config{Window: 10, Horizon: 200},
			NTrain: 400, NCCalib: 300, NRCalib: 200, NTest: 200,
			TrainPosFrac: 0.5,
		}
		splits, err := dataset.Build(ex, cfg, mathx.NewRNG(2))
		if err != nil {
			panic(err)
		}
		m, err := core.New(core.DefaultConfig(ex.Dim(), cfg.Window, cfg.Horizon, 1))
		if err != nil {
			panic(err)
		}
		tc := core.DefaultTrainConfig()
		tc.Epochs = 8
		if _, err := m.Train(splits.Train, tc); err != nil {
			panic(err)
		}
		b, err := strategy.Calibrate(m, splits.CCalib, splits.RCalib)
		if err != nil {
			panic(err)
		}
		c, err := cascade.New(cascade.DefaultConfig(), b, splits.Train, splits.CCalib, splits.RCalib, tc)
		if err != nil {
			panic(err)
		}
		cascFix = &cascFixture{bundle: b, casc: c}
	})
	return cascFix
}

// TestCascadeChargesRungWeightedPredict: a cascaded run's PredictMS must
// equal the cascade's own charged-cost accounting — strictly below the
// flat-cost run's — while scan and relay behaviour stay untouched.
func TestCascadeChargesRungWeightedPredict(t *testing.T) {
	f := getCascade(t)
	ex, ci, cfg := setup(t)
	costs := EventHitCosts(cfg.Window)
	costs.Metrics = obs.NewRegistry()
	casc, err := f.casc.WithThresholds(f.casc.Config().ExitConfidence, f.casc.Config().MaxWidthFrac)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(ex, casc, ci, cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	rep, recs, preds, err := m.Run(0, 30000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Horizons == 0 || len(recs) != rep.Horizons || len(preds) != rep.Horizons {
		t.Fatalf("horizons=%d recs=%d preds=%d", rep.Horizons, len(recs), len(preds))
	}
	s := casc.Stats()
	if s.Horizons != int64(rep.Horizons) {
		t.Fatalf("cascade served %d horizons, pipeline ran %d", s.Horizons, rep.Horizons)
	}
	if math.Abs(rep.PredictMS-s.PredictMS) > 1e-9 {
		t.Fatalf("report PredictMS %.3f != cascade charged %.3f", rep.PredictMS, s.PredictMS)
	}
	flat := float64(rep.Horizons) * EventHitCosts(cfg.Window).PredictMS
	if rep.PredictMS >= flat {
		t.Fatalf("cascaded predict cost %.1f not below flat cost %.1f", rep.PredictMS, flat)
	}
	t.Logf("predict: cascaded %.1f ms vs flat %.1f ms (%.0f%% cut)",
		rep.PredictMS, flat, 100*(1-rep.PredictMS/flat))
}

// TestCascadeRunMatchesDirectWalk: the pipeline must relay exactly what
// the cascade decides — same predictions as walking the ladder directly
// over the same anchors.
func TestCascadeRunMatchesDirectWalk(t *testing.T) {
	f := getCascade(t)
	ex, ci, cfg := setup(t)
	costs := EventHitCosts(cfg.Window)
	costs.Metrics = obs.NewRegistry()
	m, err := New(ex, f.casc, ci, cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	_, recs, preds, err := m.Run(0, 20000)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		want := f.casc.Predict(rec)
		for k := range want.Occur {
			if preds[i].Occur[k] != want.Occur[k] ||
				(want.Occur[k] && preds[i].OI[k] != want.OI[k]) {
				t.Fatalf("horizon %d: pipeline prediction differs from the cascade's", i)
			}
		}
	}
}

// TestCascadeMetricsOnPipelineRegistry: a cascade the caller registered on
// the run's registry shows its eventhit_cascade_* families alongside the
// pipeline families.
func TestCascadeMetricsOnPipelineRegistry(t *testing.T) {
	f := getCascade(t)
	ex, ci, cfg := setup(t)
	reg := obs.NewRegistry()
	costs := EventHitCosts(cfg.Window)
	costs.Metrics = reg
	f.casc.Register(reg, nil)
	m, err := New(ex, f.casc, ci, cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.Run(0, 10000); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"eventhit_cascade_exits_total", "eventhit_cascade_compute_share",
		"eventhit_pipeline_stage_ms", "eventhit_pipeline_horizons_total",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("registry missing %q", want)
		}
	}
}
