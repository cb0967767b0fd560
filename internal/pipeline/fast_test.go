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
// covariate matrix) and predictions.
func TestIncrementalReportIdentity(t *testing.T) {
	run := func(incremental bool) (Report, []dataset.Record, []metrics.Prediction) {
		ex, ci, cfg := setup(t)
		var src dataset.Source = ex
		if incremental {
			cs, err := features.NewCachedSource(ex)
			if err != nil {
				t.Fatal(err)
			}
			src = cs
		}
		m, err := New(src, strategy.Opt{}, ci, cfg, EventHitCosts(cfg.Window))
		if err != nil {
			t.Fatal(err)
		}
		rep, recs, preds, err := m.Run(0, 40000)
		if err != nil {
			t.Fatal(err)
		}
		return rep, recs, preds
	}
	repA, recsA, predsA := run(false)
	repB, recsB, predsB := run(true)
	if !reflect.DeepEqual(repA, repB) {
		t.Fatalf("reports differ:\n  plain:       %+v\n  incremental: %+v", repA, repB)
	}
	if !reflect.DeepEqual(recsA, recsB) {
		t.Fatal("records (covariate windows included) differ between plain and incremental runs")
	}
	if !reflect.DeepEqual(predsA, predsB) {
		t.Fatal("predictions differ between plain and incremental runs")
	}
}
