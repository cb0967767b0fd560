package harness

import (
	"fmt"
	"io"

	"eventhit/internal/cascade"
	"eventhit/internal/metrics"
	"eventhit/internal/strategy"
)

// Fig4Result is the REC-SPL landscape of one task: the tunable algorithms
// as curves and the knob-free ones as single points.
type Fig4Result struct {
	Task   string
	Trials int
	// Curves maps algorithm name to its averaged REC-SPL points.
	Curves map[string][]Point
	// Points maps knob-free algorithm name to its averaged point.
	Points map[string]Point
}

// Fig4 reproduces one panel of Figure 4: REC-SPL curves for EHC, EHR,
// EHCR, COX and VQS, plus points for EHO, OPT and BF, averaged over
// independent trials. On Breakfast tasks the APP-VAE points (M=200 and
// M=1500) are included; on VIRAT/THUMOS they are omitted exactly as in the
// paper (event occurrences too sparse for the window APP-VAE needs).
func Fig4(task Task, opt Options, trials int, seed int64, w io.Writer) (*Fig4Result, error) {
	// Each trial is one pool cell; a knob-free algorithm is a one-point
	// curve until the merge below, so both kinds average through
	// AveragePoints in trial order.
	type named struct {
		name string
		pts  []Point
	}
	type fig4Cell struct{ curves, points []named }
	perTrial, err := cells(trials, func(trial int) (cell fig4Cell, err error) {
		env, err := NewEnv(task, opt, seed+int64(trial))
		if err != nil {
			return cell, err
		}
		levels := ConfidenceLevels()
		for _, c := range []struct {
			name  string
			curve func() ([]Point, error)
		}{
			{"EHC", func() ([]Point, error) { return env.CurveEHC(levels) }},
			{"EHR", func() ([]Point, error) { return env.CurveEHR(levels) }},
			{"EHCR", func() ([]Point, error) { return env.CurveEHCR(levels) }},
			{"COX", func() ([]Point, error) { return env.CurveCox(CoxTaus()) }},
			{"VQS", func() ([]Point, error) { return env.CurveVQS(VQSTaus(env.Cfg.Horizon)) }},
		} {
			pts, err := c.curve()
			if err != nil {
				return cell, err
			}
			cell.curves = append(cell.curves, named{c.name, pts})
		}
		addPoint := func(name string, p Point) { cell.points = append(cell.points, named{name, []Point{p}}) }
		evalPoint := func(name string, s strategy.Strategy, knob float64) error {
			p, err := env.Eval(s, knob)
			if err == nil {
				addPoint(name, p)
			}
			return err
		}

		if err := evalPoint("EHO", env.Bundle.EHO(), 0); err != nil {
			return cell, err
		}
		if task.NumEvents() > 1 {
			preds := strategy.PredictAll(env.Bundle.EHO(), env.Splits.Test)
			perREC, err := metrics.PerEventREC(env.Splits.Test, preds)
			if err != nil {
				return cell, err
			}
			perSPL, err := metrics.PerEventSPL(env.Splits.Test, preds, env.Cfg.Horizon)
			if err != nil {
				return cell, err
			}
			for j, id := range task.EventIDs {
				addPoint(fmt.Sprintf("EHO[E%d]", id), Point{REC: perREC[j], SPL: perSPL[j]})
			}
		}
		// EH-CASC: the early-inference ladder at its default operating
		// point. The two-sided exit sets need both label populations per
		// event in the calibration split; tasks where an event is dense
		// enough to leave no negatives simply omit the point (as APP-VAE
		// is omitted where its window regime does not apply).
		if casc, err := NewCascade(env, cascade.DefaultConfig()); err == nil {
			if err := evalPoint(cascade.Name, casc, 0); err != nil {
				return cell, err
			}
		}
		if err := evalPoint("OPT", strategy.Opt{}, 0); err != nil {
			return cell, err
		}
		if err := evalPoint("BF", strategy.BF{Horizon: env.Cfg.Horizon}, 0); err != nil {
			return cell, err
		}
		if task.Dataset.Name == "Breakfast" {
			for _, m := range []int{200, 1500} {
				acfg := strategy.DefaultAppVAEConfig()
				acfg.Window = m
				acfg.Seed = seed + int64(trial)
				av, err := strategy.FitAppVAE(env.Ex, env.Splits.Train, env.Cfg.Horizon, acfg)
				if err != nil {
					return cell, err
				}
				if err := evalPoint(av.Name(), av, float64(m)); err != nil {
					return cell, err
				}
			}
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{
		Task:   task.Name,
		Trials: trials,
		Points: make(map[string]Point),
	}
	average := func(pick func(fig4Cell) []named) map[string][]Point {
		byName := map[string][][]Point{}
		for _, cell := range perTrial {
			for _, c := range pick(cell) {
				byName[c.name] = append(byName[c.name], c.pts)
			}
		}
		out := make(map[string][]Point, len(byName))
		for name, trialPts := range byName {
			out[name] = AveragePoints(trialPts)
		}
		return out
	}
	res.Curves = average(func(c fig4Cell) []named { return c.curves })
	for name, pts := range average(func(c fig4Cell) []named { return c.points }) {
		res.Points[name] = pts[0]
	}
	res.Render(w)
	return res, nil
}

// Render prints the figure panel as an ASCII plot plus text series.
func (r *Fig4Result) Render(w io.Writer) {
	r.RenderPlot(w)
	t := NewTable(fmt.Sprintf("Figure 4 (%s) — single-point algorithms (avg of %d trials)", r.Task, r.Trials),
		"algorithm", "REC", "SPL")
	for _, name := range []string{"OPT", "BF", "EHO", "EH-CASC", "APP-VAE200", "APP-VAE1500"} {
		if p, ok := r.Points[name]; ok {
			t.Addf(name, p.REC, p.SPL)
		}
	}
	// Per-event breakdown for multi-event tasks (§VI.D: the task is bound
	// by its worst event), in the task's event order. An unknown task has
	// no events to list.
	task, _ := TaskByName(r.Task)
	for _, id := range task.EventIDs {
		name := fmt.Sprintf("EHO[E%d]", id)
		if p, ok := r.Points[name]; ok {
			t.Addf(name, p.REC, p.SPL)
		}
	}
	t.Render(w)
	for _, name := range []string{"EHC", "EHR", "EHCR", "COX", "VQS"} {
		pts, ok := r.Curves[name]
		if !ok {
			continue
		}
		ct := NewTable(fmt.Sprintf("Figure 4 (%s) — %s curve", r.Task, name), "knob", "REC", "SPL")
		for _, p := range pts {
			ct.Addf(p.Knob, p.REC, p.SPL)
		}
		ct.Render(w)
	}
}
