package pipeline

import (
	"reflect"
	"sync"
	"testing"

	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/mathx"
	"eventhit/internal/metrics"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

var (
	bundleOnce sync.Once
	bundleFix  *strategy.Bundle
)

// getBundle shares one trained, calibrated THUMOS bundle across the
// pipeline tests (training dominates their cost; marshalling is cheap).
func getBundle(t *testing.T) *strategy.Bundle {
	t.Helper()
	bundleOnce.Do(func() {
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
		if bundleFix, err = strategy.Calibrate(m, splits.CCalib, splits.RCalib); err != nil {
			panic(err)
		}
	})
	return bundleFix
}

// TestIncrementalReportIdentity: a run over the incremental covariate
// source (features.CachedSource wrapped around the extractor) must
// reproduce the plain run exactly — report, records (including every
// covariate matrix) and predictions — under the oracle and under the
// trained bundle's EHCR, the decision path serve runs.
func TestIncrementalReportIdentity(t *testing.T) {
	run := func(s strategy.Strategy, incremental bool) (Report, []dataset.Record, []metrics.Prediction) {
		ex, ci, cfg := setup(t)
		var src dataset.Source = ex
		if incremental {
			cs, err := features.NewCachedSource(ex)
			if err != nil {
				t.Fatal(err)
			}
			src = cs
		}
		m, err := New(src, s, ci, cfg, EventHitCosts(cfg.Window))
		if err != nil {
			t.Fatal(err)
		}
		rep, recs, preds, err := m.Run(0, 40000)
		if err != nil {
			t.Fatal(err)
		}
		return rep, recs, preds
	}
	for _, s := range []strategy.Strategy{strategy.Opt{}, getBundle(t).EHCR(0.9, 0.9)} {
		repA, recsA, predsA := run(s, false)
		repB, recsB, predsB := run(s, true)
		if !reflect.DeepEqual(repA, repB) {
			t.Fatalf("%s: reports differ:\n  plain:       %+v\n  incremental: %+v", s.Name(), repA, repB)
		}
		if !reflect.DeepEqual(recsA, recsB) {
			t.Fatalf("%s: records (covariate windows included) differ between plain and incremental runs", s.Name())
		}
		if !reflect.DeepEqual(predsA, predsB) {
			t.Fatalf("%s: predictions differ between plain and incremental runs", s.Name())
		}
	}
}
