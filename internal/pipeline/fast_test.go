package pipeline

import (
	"reflect"
	"testing"

	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/metrics"
	"eventhit/internal/strategy"
)

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
	for _, s := range []strategy.Strategy{strategy.Opt{}, getCascade(t).bundle.EHCR(0.9, 0.9)} {
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
