package harness

import (
	"fmt"
	"io"

	"eventhit/internal/core"
	"eventhit/internal/strategy"
)

// AblationRow is one design variant's operating points.
type AblationRow struct {
	Variant string
	EHO     Point // raw thresholds (τ1 = τ2 = 0.5)
	EHCR    Point // conformal at c = α = 0.9
	MaxREC  float64
	SPLAt09 float64 // min SPL reaching REC >= 0.9 across the EHCR sweep (-1 if unreached)
}

// Ablations quantifies the design choices DESIGN.md calls out, on one
// task:
//
//   - full: the paper's architecture as implemented;
//   - no-dropout: regularization removed;
//   - uniform-sampling: training records drawn uniformly instead of
//     stratified toward positives;
//   - tau-sweep: no conformal layers at all, just sweeping the raw
//     thresholds τ1 = τ2 (what conformal calibration buys beyond threshold
//     tuning is visible in MaxREC / SPL@0.9).
func Ablations(task Task, opt Options, seed int64, w io.Writer) ([]AblationRow, error) {
	variants := []struct {
		name string
		mod  func(*Options)
	}{
		{"full", func(*Options) {}},
		{"no-dropout", func(o *Options) { o.Mutate = func(c *core.Config) { c.Dropout = 0 } }},
		{"uniform-sampling", func(o *Options) { o.TrainPosFrac = 0 }},
	}
	var rows []AblationRow
	var fullEnv *Env
	for _, v := range variants {
		o := opt
		v.mod(&o)
		env, err := NewEnv(task, o, seed)
		if err != nil {
			return nil, fmt.Errorf("harness: ablation %s: %w", v.name, err)
		}
		if v.name == "full" {
			fullEnv = env
		}
		eho, ehcr, curve, err := env.headline()
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Variant: v.name, EHO: eho, EHCR: ehcr,
			MaxREC: maxREC(curve).REC, SPLAt09: splAt09(curve)})
	}

	// tau-sweep: the conformal-free alternative, swept over raw thresholds
	// on the full model.
	tauCurve, err := fullEnv.sweep([]float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7},
		func(tau float64) strategy.Strategy { return fullEnv.Bundle.WithTaus(tau, tau).EHO() })
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{Variant: "tau-sweep", EHO: tauCurve[len(tauCurve)/2],
		MaxREC: maxREC(tauCurve).REC, SPLAt09: splAt09(tauCurve)})

	t := NewTable(fmt.Sprintf("Ablations on %s (seed %d)", task.Name, seed),
		"variant", "EHO REC", "EHO SPL", "EHCR(.9) REC", "EHCR(.9) SPL", "max REC", "SPL@REC>=0.9")
	for _, r := range rows {
		at09 := "unreached"
		if r.SPLAt09 >= 0 {
			at09 = fmt.Sprintf("%.3f", r.SPLAt09)
		}
		if r.Variant == "tau-sweep" {
			t.Addf(r.Variant, r.EHO.REC, r.EHO.SPL, "-", "-", r.MaxREC, at09)
			continue
		}
		t.Addf(r.Variant, r.EHO.REC, r.EHO.SPL, r.EHCR.REC, r.EHCR.SPL, r.MaxREC, at09)
	}
	t.Render(w)
	return rows, nil
}

// splAt09 is the smallest SPL among the points reaching REC >= 0.9, or -1.
func splAt09(curve []Point) float64 {
	if spl, ok := MinSPLAtREC(curve, 0.9); ok {
		return spl
	}
	return -1
}
