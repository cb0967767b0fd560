package harness

import (
	"errors"
	"fmt"
	"io"

	"eventhit/internal/cloud"
	"eventhit/internal/dataset"
	"eventhit/internal/drift"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

// OperateResult summarizes a long-horizon operations run.
type OperateResult struct {
	Horizons        int
	Relays          int
	CIFrames        int64 // relays and audits
	SpentUSD        float64
	BudgetExhausted bool
	// Detections is the count of true event segments the CI confirmed.
	Detections int
	// Audits, Alarms and Recalibrations are the adaptation loop's audited
	// skips, alarm episodes and recalibration swaps.
	Audits, Alarms, Recalibrations int64
	// RecallRealized is the frame-level recall over the whole run,
	// computed post-hoc against ground truth.
	RecallRealized float64
	// BFWouldSpend is what brute force would have paid for the same period.
	BFWouldSpend float64
}

// Operate simulates continuous operation of the full Figure 1 deployment
// over the post-training remainder of a stream: per horizon it predicts
// with EHCR, relays through the CI channel serve uses with every relay and
// audit charged against a hard monthly budget (cloud.Budget) first, and
// runs the adaptation loop serve ships (drift.Loop at drift.DefaultConfig)
// on the CI's labels. It is the integration scenario a production adopter
// runs before going live — everything (training, conformal calibration,
// pricing, budget, drift handling) exercised together.
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
	budget, err := cloud.NewBudget(budgetUSD)
	if err != nil {
		return nil, err
	}
	cam, err := newAdaptive(env, drift.DefaultConfig(), strategy.EHCRRule(confidence, coverage))
	if err != nil {
		return nil, err
	}
	cam.budget = budget
	res := &OperateResult{}
	var coveredFrames, trueFrames int64
	start, end := testRegion(env)
	for t := start; t+env.Cfg.Horizon < end; t += env.Cfg.Horizon {
		rec, err := dataset.BuildRecord(env.Ex, t, env.Cfg)
		if err != nil {
			return nil, err
		}
		res.Horizons++
		// Ground-truth accounting (post-hoc; the operator sees it later).
		if rec.Label[0] {
			trueFrames += int64(rec.OI[0].Len())
		}
		det, _, err := cam.step(rec, env.Cfg.Horizon)
		if errors.Is(err, cloud.ErrBudgetExhausted) {
			res.BudgetExhausted = true
			break
		}
		if err != nil {
			return nil, err
		}
		if !cam.pred.Occur[0] {
			continue
		}
		res.Relays++
		res.Detections += det
		if rec.Label[0] {
			truth := video.Interval{Start: t + rec.OI[0].Start, End: t + rec.OI[0].End}
			if ov, ok := cam.reqs[0].Win.Intersect(truth); ok {
				coveredFrames += int64(ov.Len())
			}
		}
	}
	st := cam.loop.Stats()
	res.Audits, res.Alarms, res.Recalibrations = st.Audits, st.Episodes, st.Recalibrations
	u := cam.ci.Usage()
	res.CIFrames = u.Frames
	res.SpentUSD = u.SpentUSD
	res.BFWouldSpend = cam.ci.CostOf(res.Horizons * env.Cfg.Horizon)
	if trueFrames > 0 {
		res.RecallRealized = float64(coveredFrames) / float64(trueFrames)
	}
	tb := NewTable(fmt.Sprintf("Continuous operation on %s (c=%.2f, alpha=%.2f, budget $%.2f)",
		task.Name, confidence, coverage, budgetUSD), "quantity", "value")
	tb.Addf("horizons processed", res.Horizons)
	tb.Addf("relays", res.Relays)
	tb.Addf("audits", res.Audits)
	tb.Addf("CI frames", res.CIFrames)
	tb.Addf("spend", fmt.Sprintf("$%.2f (budget left $%.2f)", res.SpentUSD, budget.Remaining()))
	tb.Addf("brute force would spend", fmt.Sprintf("$%.2f", res.BFWouldSpend))
	tb.Addf("budget exhausted", res.BudgetExhausted)
	tb.Addf("realized frame recall", res.RecallRealized)
	tb.Addf("CI-confirmed segments", res.Detections)
	tb.Addf("drift alarm episodes", res.Alarms)
	tb.Addf("recalibrations", res.Recalibrations)
	tb.Render(w)
	return res, nil
}
