package harness

import (
	"fmt"
	"io"

	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/metrics"
	"eventhit/internal/strategy"
)

// TuneExperiment runs the §III β/γ grid search on one task and reports
// every grid point's validation objective plus the winner.
func TuneExperiment(task Task, opt Options, seed int64, w io.Writer) ([]TuneResult, error) {
	env, err := NewEnv(task, opt, seed) // reuse its splits; the search retrains
	if err != nil {
		return nil, err
	}
	base := core.DefaultConfig(env.Ex.Dim(), env.Cfg.Window, env.Cfg.Horizon, task.NumEvents())
	base.Seed = seed
	tc := core.DefaultTrainConfig()
	tc.Epochs = opt.Epochs
	results, best, err := tuneSearch(base, tc, defaultTuneGrid(),
		env.Splits.Train, env.Splits.CCalib, env.Splits.RCalib, env.Splits.Test, nil)
	if err != nil {
		return nil, err
	}
	t := NewTable(fmt.Sprintf("β/γ grid search on %s (objective: REC - 0.5·SPL of EHO)", task.Name),
		"beta", "gamma", "score")
	for _, r := range results {
		t.Addf(r.Beta, r.Gamma, r.Score)
	}
	t.Render(w)
	top, err := tuneBest(results)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "winner: beta=%.2f gamma=%.2f (model %d params)\n\n",
		top.Beta, top.Gamma, best.Model.NumParams())
	return results, nil
}

// tuneObjective scores a trained bundle on validation records, higher is
// better: REC - 0.5*SPL of EHO — a single number rewarding recall (driven by
// β) and penalizing spillage (driven by γ).
func tuneObjective(b *strategy.Bundle, val []dataset.Record, horizon int) (float64, error) {
	preds := strategy.PredictAll(b.EHO(), val)
	rec, err := metrics.REC(val, preds)
	if err != nil {
		return 0, err
	}
	spl, err := metrics.SPL(val, preds, horizon)
	if err != nil {
		return 0, err
	}
	return rec - 0.5*spl, nil
}

// tuneGrid is the search space: candidate uniform β and γ values (applied
// to all events — per-event grids explode combinatorially and the paper
// tunes scalars too).
type tuneGrid struct {
	Betas  []float64
	Gammas []float64
}

// defaultTuneGrid spans half an order of magnitude around the paper's
// implicit 1.0.
func defaultTuneGrid() tuneGrid {
	return tuneGrid{
		Betas:  []float64{0.5, 1, 2},
		Gammas: []float64{0.5, 1, 2},
	}
}

// TuneResult is one evaluated grid point.
type TuneResult struct {
	Beta, Gamma float64
	Score       float64
}

// tuneSearch is the hyper-parameter search the paper defers to (§III: "The
// hyper-parameters β_k and γ_k ... can be tuned by grid search"): it trains
// one model per grid point on train, calibrates on the two calibration
// sets, scores on val, and returns all results plus the best bundle. base
// supplies everything but Beta/Gamma; tc is the training configuration.
// log, when non-nil, receives one line per grid point.
func tuneSearch(base core.Config, tc core.TrainConfig, grid tuneGrid,
	train, ccalib, rcalib, val []dataset.Record, log io.Writer) ([]TuneResult, *strategy.Bundle, error) {
	if len(grid.Betas) == 0 || len(grid.Gammas) == 0 {
		return nil, nil, fmt.Errorf("harness: empty tune grid")
	}
	var results []TuneResult
	var best *strategy.Bundle
	bestScore := 0.0
	for _, beta := range grid.Betas {
		for _, gamma := range grid.Gammas {
			cfg := base
			cfg.Beta = uniform(beta, cfg.NumEvents)
			cfg.Gamma = uniform(gamma, cfg.NumEvents)
			m, err := core.New(cfg)
			if err != nil {
				return nil, nil, err
			}
			if _, err := m.Train(train, tc); err != nil {
				return nil, nil, fmt.Errorf("harness: tune beta=%v gamma=%v: %w", beta, gamma, err)
			}
			b, err := strategy.Calibrate(m, ccalib, rcalib)
			if err != nil {
				return nil, nil, fmt.Errorf("harness: tune beta=%v gamma=%v: %w", beta, gamma, err)
			}
			score, err := tuneObjective(b, val, cfg.Horizon)
			if err != nil {
				return nil, nil, err
			}
			results = append(results, TuneResult{Beta: beta, Gamma: gamma, Score: score})
			if log != nil {
				fmt.Fprintf(log, "beta=%.2f gamma=%.2f score=%.4f\n", beta, gamma, score)
			}
			if best == nil || score > bestScore {
				best, bestScore = b, score
			}
		}
	}
	return results, best, nil
}

func uniform(v float64, k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = v
	}
	return out
}

// tuneBest returns the highest-scoring result.
func tuneBest(results []TuneResult) (TuneResult, error) {
	if len(results) == 0 {
		return TuneResult{}, fmt.Errorf("harness: no tune results")
	}
	best := results[0]
	for _, r := range results[1:] {
		if r.Score > best.Score {
			best = r
		}
	}
	return best, nil
}
