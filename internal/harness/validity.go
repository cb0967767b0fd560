package harness

import (
	"fmt"
	"io"

	"eventhit/internal/core"
)

// ValidityRow is the empirical check of one guarantee level.
type ValidityRow struct {
	Level float64
	// ExistenceCoverage is the realized P(E_k ∈ L̂ | E_k ∈ L) at
	// confidence c = Level (Theorem 4.2 promises >= Level).
	ExistenceCoverage float64
	// StartCoverage and EndCoverage are the realized probabilities that
	// the true boundary falls within ±q̂ of the estimate at coverage
	// α = Level (Theorem 5.2 promises >= Level).
	StartCoverage, EndCoverage float64
	Positives                  int
}

// Validity empirically verifies the paper's two theorems on a task: over
// `trials` independently generated streams and models, it measures the
// realized existence coverage of C-CLASSIFY at each confidence level and
// the realized boundary coverage of C-REGRESS's ±q̂ bands at each coverage
// level. The marginal guarantees hold on average over trials (per-trial
// numbers fluctuate because records near one instance are correlated —
// the same caveat the test suite documents).
func Validity(task Task, opt Options, trials int, seed int64, w io.Writer) ([]ValidityRow, error) {
	levels := []float64{0.5, 0.7, 0.8, 0.9, 0.95}
	rows := make([]ValidityRow, len(levels))
	for i, l := range levels {
		rows[i].Level = l
	}
	// Each trial is one pool cell accumulating into its own row slice; the
	// per-trial rows are summed in trial order below so the averages match
	// the serial run exactly.
	perTrial, err := cells(trials, func(trial int) ([]ValidityRow, error) {
		rows := make([]ValidityRow, len(levels))
		env, err := NewEnv(task, opt, seed+int64(trial))
		if err != nil {
			return nil, err
		}
		for i, level := range levels {
			// Theorem 4.2: existence coverage at confidence c.
			kept, pos := existence(env.Bundle.EHC(level), env.Splits.Test)
			if pos > 0 {
				rows[i].ExistenceCoverage += float64(kept) / float64(pos)
			}
			rows[i].Positives += pos

			// Theorem 5.2: boundary coverage of the ±q̂ band around the raw
			// decoded estimates at coverage alpha.
			var sCov, eCov float64
			bPos := 0
			for _, r := range env.Splits.Test {
				var out core.Output
				evaluated := false
				for k, lab := range r.Label {
					if !lab {
						continue
					}
					if !evaluated {
						out = env.Bundle.Model.Predict(r.X)
						evaluated = true
					}
					iv, _ := core.DecodeInterval(out.Theta[k], env.Bundle.Tau2)
					qs, qe := env.Bundle.Regressor.Quantiles(k, level)
					bPos++
					if absDiff(iv.Start, r.OI[k].Start) <= qs {
						sCov++
					}
					if absDiff(iv.End, r.OI[k].End) <= qe {
						eCov++
					}
				}
			}
			if bPos > 0 {
				rows[i].StartCoverage += sCov / float64(bPos)
				rows[i].EndCoverage += eCov / float64(bPos)
			}
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	for _, cell := range perTrial {
		for i := range rows {
			rows[i].ExistenceCoverage += cell[i].ExistenceCoverage
			rows[i].StartCoverage += cell[i].StartCoverage
			rows[i].EndCoverage += cell[i].EndCoverage
			rows[i].Positives += cell[i].Positives
		}
	}
	for i := range rows {
		rows[i].ExistenceCoverage /= float64(trials)
		rows[i].StartCoverage /= float64(trials)
		rows[i].EndCoverage /= float64(trials)
	}
	t := NewTable(fmt.Sprintf("Conformal validity on %s (Theorems 4.2 and 5.2, avg of %d trials)",
		task.Name, trials),
		"level", "existence coverage", "start-band coverage", "end-band coverage")
	for _, r := range rows {
		t.Addf(r.Level, r.ExistenceCoverage, r.StartCoverage, r.EndCoverage)
	}
	t.Render(w)
	fmt.Fprintln(w, "every coverage column should sit at or above its level (within sampling error)")
	fmt.Fprintln(w)
	return rows, nil
}

func absDiff(a, b int) float64 {
	if a > b {
		return float64(a - b)
	}
	return float64(b - a)
}
