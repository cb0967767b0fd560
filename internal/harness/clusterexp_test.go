package harness

import (
	"bytes"
	"testing"
)

// TestClusterSweepQuick runs the sweep end to end at small scale: every
// sharded run must reproduce the baseline byte for byte and the capacity
// accounting must cover all frames.
func TestClusterSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	var buf bytes.Buffer
	fcfg := quickFleetPolicy()
	res, err := ClusterSweep("TA10", Quick(), 4, 10_000, fcfg, []int{1, 2}, 5, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("sweep produced %d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if !r.ReportIdentical {
			t.Fatalf("%d-worker sim diverged from fleet.Run", r.Workers)
		}
		if r.TotalSpentUSD > fcfg.GlobalBudgetUSD {
			t.Fatalf("%d workers spent %.4f over cap", r.Workers, r.TotalSpentUSD)
		}
	}
	if res.Rows[1].Speedup <= 1 {
		t.Fatalf("2 workers yielded no speedup: %+v", res.Rows[1])
	}
	if buf.Len() == 0 {
		t.Fatal("sweep rendered no table")
	}
}
