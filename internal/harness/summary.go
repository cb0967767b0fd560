package harness

import (
	"fmt"
	"io"

	"eventhit/internal/metrics"
	"eventhit/internal/strategy"
)

// SummaryRow is one task's headline numbers.
type SummaryRow struct {
	Task     string
	EHO      Point
	EHOCI    metrics.CI // 95% bootstrap CI on EHO's REC
	EHCR90   Point      // EHCR at c = α = 0.9
	MaxREC   float64
	SPLAtMax float64
}

// Summary prints the compact all-tasks overview: for every Table II task,
// the EHO operating point, EHCR at the 0.9/0.9 knobs, and the top of the
// EHCR curve — the numbers a reader checks first against Figure 4.
func Summary(opt Options, seed int64, w io.Writer) ([]SummaryRow, error) {
	tasks := Tasks()
	rows, err := cells(len(tasks), func(i int) (SummaryRow, error) {
		env, err := NewEnv(tasks[i], opt, seed)
		if err != nil {
			return SummaryRow{}, err
		}
		eho, mid, curve, err := env.headline()
		if err != nil {
			return SummaryRow{}, err
		}
		ehoPreds := strategy.PredictAll(env.Bundle.EHO(), env.Splits.Test)
		ci, err := metrics.RECBootstrap(env.Splits.Test, ehoPreds, 200, 0.95, seed)
		top := maxREC(curve)
		return SummaryRow{Task: tasks[i].Name, EHO: eho, EHOCI: ci, EHCR90: mid, MaxREC: top.REC, SPLAtMax: top.SPL}, err
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%s done\n", r.Task)
	}
	t := NewTable(fmt.Sprintf("All-task summary (seed %d, 95%% bootstrap CI on EHO REC)", seed),
		"task", "EHO REC [95% CI]", "EHO SPL", "EHCR(.9) REC", "EHCR(.9) SPL", "EHCR max REC", "SPL at max")
	for _, r := range rows {
		t.Addf(r.Task, r.EHOCI.String(), r.EHO.SPL, r.EHCR90.REC, r.EHCR90.SPL, r.MaxREC, r.SPLAtMax)
	}
	t.Render(w)
	return rows, nil
}
