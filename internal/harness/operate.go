package harness

import (
	"errors"
	"fmt"
	"io"

	"eventhit/internal/cloud"
	"eventhit/internal/dataset"
	"eventhit/internal/drift"
	"eventhit/internal/metrics"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

// OperateResult summarizes a long-horizon operations run.
type OperateResult struct {
	Horizons        int
	Relays          int
	CIFrames        int64
	SpentUSD        float64
	BudgetExhausted bool
	// Detections is the count of true event segments the CI confirmed.
	Detections int
	// Alarms is how many times the drift monitor fired (the run
	// recalibrates on each alarm).
	Alarms int
	// RecallRealized is the frame-level recall over the whole run,
	// computed post-hoc against ground truth.
	RecallRealized float64
	// BFWouldSpend is what brute force would have paid for the same period.
	BFWouldSpend float64
}

// Operate simulates continuous operation of the full Figure 1 deployment
// over the post-training remainder of a stream: per horizon it predicts
// with EHCR, charges relays against a hard monthly budget (cloud.Budget),
// feeds realized outcomes to the drift monitor and the recalibration
// buffer, and recalibrates C-CLASSIFY whenever the monitor alarms. It is
// the integration scenario a production adopter runs before going live —
// everything (training, conformal calibration, pricing, budget, drift
// handling) exercised together.
func Operate(task Task, opt Options, confidence, coverage, budgetUSD float64,
	seed int64, w io.Writer) (*OperateResult, error) {
	if task.NumEvents() != 1 {
		return nil, fmt.Errorf("harness: operate supports single-event tasks, %s has %d",
			task.Name, task.NumEvents())
	}
	env, err := NewEnv(task, opt, seed)
	if err != nil {
		return nil, err
	}
	ci := env.ci()
	budget, err := cloud.NewBudget(budgetUSD)
	if err != nil {
		return nil, err
	}
	mon, err := drift.NewMonitor(confidence, 80, 0.02)
	if err != nil {
		return nil, err
	}
	recal, err := drift.NewRecalibrator(1000, 1)
	if err != nil {
		return nil, err
	}

	// The deployed bundle: the trained one until an alarm swaps in a
	// recalibrated C-CLASSIFY. Every horizon is one Bundle.Decide, whose raw
	// scores feed the recalibration buffer.
	bundle := env.Bundle
	rule := strategy.EHCRRule(confidence, coverage)
	var sc strategy.Scratch
	var pred metrics.Prediction
	res := &OperateResult{}
	var coveredFrames, trueFrames int64
	start, end := testRegion(env)
	for t := start; t+env.Cfg.Horizon < end; t += env.Cfg.Horizon {
		rec, err := dataset.BuildRecord(env.Ex, t, env.Cfg)
		if err != nil {
			return nil, err
		}
		res.Horizons++
		scores := bundle.Decide(rec, rule, &sc, &pred)
		if err := recal.Add(scores, rec.Label); err != nil {
			return nil, err
		}
		occ, iv := pred.Occur[0], pred.OI[0]

		// Ground-truth accounting (post-hoc; the operator sees it later).
		if rec.Label[0] {
			trueFrames += int64(rec.OI[0].Len())
			if mon.Observe(occ) {
				res.Alarms++
				if fresh, err := recal.RebuildRecent(400); err == nil {
					if bundle, err = bundle.WithClassifier(fresh); err != nil {
						return nil, err
					}
					mon.Reset()
				}
			}
		}
		if !occ {
			continue
		}
		abs := video.Interval{Start: t + iv.Start, End: t + iv.End}
		cost := ci.CostOf(abs.Len())
		if err := budget.Charge(cost); err != nil {
			if errors.Is(err, cloud.ErrBudgetExhausted) {
				res.BudgetExhausted = true
				break
			}
			return nil, err
		}
		det, err := ci.Detect(env.Ex.Events()[0], abs)
		if err != nil {
			return nil, err
		}
		res.Relays++
		res.Detections += len(det.Found)
		if rec.Label[0] {
			truth := video.Interval{Start: t + rec.OI[0].Start, End: t + rec.OI[0].End}
			if ov, ok := abs.Intersect(truth); ok {
				coveredFrames += int64(ov.Len())
			}
		}
	}
	u := ci.Usage()
	res.CIFrames = u.Frames
	res.SpentUSD = u.SpentUSD
	res.BFWouldSpend = ci.CostOf(res.Horizons * env.Cfg.Horizon)
	if trueFrames > 0 {
		res.RecallRealized = float64(coveredFrames) / float64(trueFrames)
	}
	tb := NewTable(fmt.Sprintf("Continuous operation on %s (c=%.2f, alpha=%.2f, budget $%.2f)",
		task.Name, confidence, coverage, budgetUSD), "quantity", "value")
	tb.Addf("horizons processed", res.Horizons)
	tb.Addf("relays", res.Relays)
	tb.Addf("CI frames", res.CIFrames)
	tb.Addf("spend", fmt.Sprintf("$%.2f (budget left $%.2f)", res.SpentUSD, budget.Remaining()))
	tb.Addf("brute force would spend", fmt.Sprintf("$%.2f", res.BFWouldSpend))
	tb.Addf("budget exhausted", res.BudgetExhausted)
	tb.Addf("realized frame recall", res.RecallRealized)
	tb.Addf("CI-confirmed segments", res.Detections)
	tb.Addf("drift alarms / recalibrations", res.Alarms)
	tb.Render(w)
	return res, nil
}
