package harness

import (
	"fmt"
	"io"

	"eventhit/internal/pipeline"
	"eventhit/internal/strategy"
)

// Fig9Point is one (REC, FPS) operating point of one algorithm on one task.
type Fig9Point struct {
	Task      string
	Algorithm string
	Knob      float64
	REC       float64
	FPS       float64
}

// Fig9 reproduces Figure 9: REC versus simulated end-to-end FPS for EHCR,
// COX and VQS on TA10 and TA11, sweeping each algorithm's knob and running
// the full marshalling pipeline (feature extraction + predictor + CI) over
// the test region of the stream.
func Fig9(opt Options, seed int64, w io.Writer) ([]Fig9Point, error) {
	// One pool cell per task; each cell sweeps its knobs locally and the
	// per-task point lists are concatenated in task order.
	names := []string{"TA10", "TA11"}
	perTask, err := cells(len(names), func(ti int) ([]Fig9Point, error) {
		env, err := NewEnv(mustTask(names[ti]), opt, seed)
		if err != nil {
			return nil, err
		}
		var pts []Fig9Point
		run := func(algo string, knob float64, s strategy.Strategy, costs pipeline.Costs) error {
			sc, err := env.marshal(s, costs, env.ci())
			if err != nil {
				return err
			}
			pts = append(pts, Fig9Point{Task: names[ti], Algorithm: algo, Knob: knob, REC: sc.REC, FPS: sc.FPS()})
			return nil
		}
		ehCosts := pipeline.EventHitCosts(env.Cfg.Window)
		for _, level := range ConfidenceLevels() {
			if err := run("EHCR", level, env.Bundle.EHCR(level, level), ehCosts); err != nil {
				return nil, err
			}
		}
		for _, tau := range CoxTaus() {
			if err := run("COX", tau, env.Cox.WithTau(tau), ehCosts); err != nil {
				return nil, err
			}
		}
		for _, tau := range VQSTaus(env.Cfg.Horizon) {
			if err := run("VQS", float64(tau), env.VQS.WithTau(tau), pipeline.VQSCosts(env.Cfg.Horizon)); err != nil {
				return nil, err
			}
		}
		return pts, nil
	})
	if err != nil {
		return nil, err
	}
	var out []Fig9Point
	for _, pts := range perTask {
		out = append(out, pts...)
	}
	t := NewTable("Figure 9 — REC vs simulated FPS", "task", "algorithm", "knob", "REC", "FPS")
	for _, p := range out {
		t.Addf(p.Task, p.Algorithm, p.Knob, p.REC, fmt.Sprintf("%.1f", p.FPS))
	}
	t.Render(w)
	return out, nil
}

// Fig10Result is the per-stage time breakdown of EHCR at a recall target.
type Fig10Result struct {
	Task                             string
	AchievedREC                      float64
	Knob                             float64
	ScanShare, PredictShare, CIShare float64
}

// Fig10 reproduces Figure 10: the proportion of processing time spent on
// feature extraction, EventHit inference and the CI when EHCR runs TA10 at
// the smallest knob setting reaching REC >= target (the paper uses 0.9;
// CI time dominates).
func Fig10(opt Options, target float64, seed int64, w io.Writer) (*Fig10Result, error) {
	task := mustTask("TA10")
	env, err := NewEnv(task, opt, seed)
	if err != nil {
		return nil, err
	}
	var best *Fig10Result
	for _, level := range ConfidenceLevels() {
		run, err := env.marshal(env.Bundle.EHCR(level, level), pipeline.EventHitCosts(env.Cfg.Window), env.ci())
		if err != nil {
			return nil, err
		}
		if run.REC >= target { // the first qualifying level is the cheapest
			scan, pred, cis := run.StageShares()
			best = &Fig10Result{
				Task: task.Name, AchievedREC: run.REC, Knob: level,
				ScanShare: scan, PredictShare: pred, CIShare: cis,
			}
			break
		}
	}
	if best == nil {
		return nil, fmt.Errorf("harness: EHCR never reached REC >= %.2f on %s", target, task.Name)
	}
	t := NewTable(fmt.Sprintf("Figure 10 — stage time shares on %s at REC>=%.2f (achieved %.3f, c=alpha=%.3f)",
		best.Task, target, best.AchievedREC, best.Knob),
		"stage", "share")
	t.Addf("Feature Extraction", fmt.Sprintf("%.1f%%", 100*best.ScanShare))
	t.Addf("EventHit", fmt.Sprintf("%.1f%%", 100*best.PredictShare))
	t.Addf("Cloud Infrastructure", fmt.Sprintf("%.1f%%", 100*best.CIShare))
	t.Render(w)
	return best, nil
}
