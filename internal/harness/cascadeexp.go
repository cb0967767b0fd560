package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"eventhit/internal/cascade"
	"eventhit/internal/core"
)

// CascadeSweep maps the early-inference ladder's operating surface: for
// each ladder shape it trains the lowered rungs once, then walks the
// decisiveness grid (exit confidence × relay-granularity width bound)
// and scores every point against the plain EHCR baseline on the same
// test split — the REC/SPL give-up bought per unit of predict compute
// saved. The sweep SELECTS the point with the largest compute cut that
// stays inside the pinned recall tolerance and refuses to publish when
// no point clears both bars, so a committed BENCH_cascade.json always
// certifies a ladder worth deploying.

// CascadeRECTol is the pinned recall give-up bound: the selected cascade
// operating point must match plain EventHit REC within this tolerance.
// The conformal exit rule makes the bound principled — at exit
// confidence q, at most a 1-q fraction of exchangeable positives can be
// auto-rejected low — and TestCascadeArtifact enforces it on the
// committed artifact.
const CascadeRECTol = 0.02

// CascadeMinComputeCut is the pinned floor on the selected point's mean
// per-horizon predict compute saving versus the full model alone.
const CascadeMinComputeCut = 0.30

// CascadeRungStat is one ladder position's serving record at a sweep
// point (the last entry is always the full rung).
type CascadeRungStat struct {
	Name         string  `json:"name"`
	HiddenScale  float64 `json:"hidden_scale"`
	WindowStride int     `json:"window_stride"`
	CostMS       float64 `json:"cost_ms"`
	// Exits is the integer horizon count answered at this rung; the
	// per-point exits sum exactly to Horizons and ExitRate is the
	// normalized share.
	Exits    int64   `json:"exits"`
	ExitRate float64 `json:"exit_rate"`
	// ComputeShare is the fraction of the point's total charged predict
	// cost spent evaluating this rung (every horizon that reaches the rung
	// pays its cost, whether or not it exits there); shares sum to 1.
	ComputeShare float64 `json:"compute_share"`
}

// CascadePoint is one (ladder, exit confidence, width bound) evaluation.
type CascadePoint struct {
	Ladder         string  `json:"ladder"`
	ExitConfidence float64 `json:"exit_confidence"`
	MaxWidthFrac   float64 `json:"max_width_frac"`
	REC            float64 `json:"rec"`
	SPL            float64 `json:"spl"`
	// RECDelta/SPLDelta are this point minus the plain EHCR baseline.
	RECDelta float64 `json:"rec_delta"`
	SPLDelta float64 `json:"spl_delta"`
	Horizons int64   `json:"horizons"`
	// MeanPredictMS is the mean charged predict cost per horizon;
	// ComputeFrac is that cost relative to full-model-only serving and
	// ComputeCut = 1 - ComputeFrac.
	MeanPredictMS float64           `json:"mean_predict_ms"`
	ComputeFrac   float64           `json:"compute_frac"`
	ComputeCut    float64           `json:"compute_cut"`
	Rungs         []CascadeRungStat `json:"rungs"`
}

// CascadeResult is the machine-readable record emitted as
// BENCH_cascade.json.
type CascadeResult struct {
	Task    string `json:"task"`
	Window  int    `json:"window"`
	Horizon int    `json:"horizon"`
	Seed    int64  `json:"seed"`
	// Confidence/Coverage are the shared EHCR operating point; RECTol and
	// MinComputeCut are the pinned selection bars (= CascadeRECTol,
	// CascadeMinComputeCut at generation time).
	Confidence    float64 `json:"confidence"`
	Coverage      float64 `json:"coverage"`
	RECTol        float64 `json:"rec_tol"`
	MinComputeCut float64 `json:"min_compute_cut"`
	// BaselineREC/SPL score plain EHCR on the same trained bundle and
	// test split every point is compared against.
	BaselineREC float64 `json:"baseline_rec"`
	BaselineSPL float64 `json:"baseline_spl"`
	// Points is the full frontier (ladder-major, then exit confidence,
	// then width bound); Selected is the winning point.
	Points   []CascadePoint `json:"points"`
	Selected CascadePoint   `json:"selected"`
}

// CascadeLadders returns the ladder shapes the sweep compares: the
// default tiny/medium two-rung ladder, the tiny rung alone, and a deeper
// micro/tiny/medium ladder.
func CascadeLadders() [][]cascade.RungSpec {
	return [][]cascade.RungSpec{
		cascade.DefaultLadder(),
		{{Name: "tiny", HiddenScale: 0.25, WindowStride: 4}},
		{
			{Name: "micro", HiddenScale: 0.125, WindowStride: 5},
			{Name: "tiny", HiddenScale: 0.25, WindowStride: 4},
			{Name: "medium", HiddenScale: 0.5, WindowStride: 2},
		},
	}
}

// CascadeExitConfidences and CascadeWidthFracs are the decisiveness grid.
func CascadeExitConfidences() []float64 { return []float64{0.90, 0.95, 0.98} }
func CascadeWidthFracs() []float64      { return []float64{0.6, 0.8, 1.0} }

// LadderName joins the rung names into the sweep's ladder label.
func LadderName(rungs []cascade.RungSpec) string {
	names := make([]string, len(rungs))
	for i, r := range rungs {
		names[i] = r.Name
	}
	return strings.Join(names, "+")
}

// NewCascade builds a cascade under an environment's trained bundle with
// the environment's own training discipline (epochs, seed), so rung
// training follows the same reproducibility rules as the full model. Fig4
// uses it for the EH-CASC entrant.
func NewCascade(env *Env, cfg cascade.Config) (*cascade.Cascade, error) {
	tc := core.DefaultTrainConfig()
	tc.Epochs = env.Opt.Epochs
	tc.Seed = env.Bundle.Model.Config().Seed
	return cascade.New(cfg, env.Bundle, env.Splits.Train, env.Splits.CCalib, env.Splits.RCalib, tc)
}

// CascadeSweep trains the task once, then evaluates every ladder shape
// over the decisiveness grid. Ladders are independent pool cells (each
// trains its own lowered rungs; the full bundle is only read, so every
// cell shares it), so the result is byte-identical at any harness
// parallelism. It
// fails rather than publishes when no point meets both pinned selection
// bars.
func CascadeSweep(task Task, opt Options, seed int64, w io.Writer) (*CascadeResult, error) {
	ladders, exitConfs, widthFracs := CascadeLadders(), CascadeExitConfidences(), CascadeWidthFracs()
	env, err := NewEnv(task, opt, seed)
	if err != nil {
		return nil, err
	}
	baseline, err := env.Eval(env.ehcr90(), 0)
	if err != nil {
		return nil, err
	}
	res := &CascadeResult{
		Task:       task.Name,
		Window:     env.Cfg.Window,
		Horizon:    env.Cfg.Horizon,
		Seed:       seed,
		Confidence: opLevel, Coverage: opLevel,
		RECTol:        CascadeRECTol,
		MinComputeCut: CascadeMinComputeCut,
		BaselineREC:   baseline.REC,
		BaselineSPL:   baseline.SPL,
	}

	perLadder, err := cells(len(ladders), func(li int) ([]CascadePoint, error) {
		// Lowered rungs are deterministic given the shared seed, so cells
		// are order-independent.
		cfg := cascade.DefaultConfig()
		cfg.Rungs = ladders[li]
		cfg.Confidence, cfg.Coverage = opLevel, opLevel
		casc, err := NewCascade(env, cfg)
		if err != nil {
			return nil, err
		}
		name := LadderName(ladders[li])
		var pts []CascadePoint
		for _, conf := range exitConfs {
			for _, frac := range widthFracs {
				view, err := casc.WithThresholds(conf, frac)
				if err != nil {
					return nil, err
				}
				pt, err := env.Eval(view, 0)
				if err != nil {
					return nil, err
				}
				s := view.Stats()
				if s.Horizons != int64(len(env.Splits.Test)) {
					return nil, fmt.Errorf("harness: cascade served %d horizons, test split has %d",
						s.Horizons, len(env.Splits.Test))
				}
				cp := CascadePoint{
					Ladder:         name,
					ExitConfidence: conf,
					MaxWidthFrac:   frac,
					REC:            pt.REC,
					SPL:            pt.SPL,
					RECDelta:       pt.REC - baseline.REC,
					SPLDelta:       pt.SPL - baseline.SPL,
					Horizons:       s.Horizons,
					MeanPredictMS:  s.MeanPredictMS(),
					ComputeFrac:    s.ComputeFrac(),
					ComputeCut:     1 - s.ComputeFrac(),
				}
				// Rung i is evaluated by every horizon that exits at or
				// above it; its compute share charges those evaluations.
				reached := s.Horizons
				for i := 0; i < casc.NumRungs(); i++ {
					spec := casc.RungSpecAt(i)
					cp.Rungs = append(cp.Rungs, CascadeRungStat{
						Name:         spec.Name,
						HiddenScale:  spec.HiddenScale,
						WindowStride: spec.WindowStride,
						CostMS:       casc.RungCostMS(i),
						Exits:        s.Exits[i],
						ExitRate:     float64(s.Exits[i]) / float64(s.Horizons),
						ComputeShare: float64(reached) * casc.RungCostMS(i) / s.PredictMS,
					})
					reached -= s.Exits[i]
				}
				pts = append(pts, cp)
			}
		}
		return pts, nil
	})
	if err != nil {
		return nil, err
	}
	for _, pts := range perLadder {
		res.Points = append(res.Points, pts...)
	}

	best := -1
	for i, p := range res.Points {
		if math.Abs(p.RECDelta) > CascadeRECTol || p.ComputeCut < CascadeMinComputeCut {
			continue
		}
		if best < 0 || p.ComputeCut > res.Points[best].ComputeCut {
			best = i
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("harness: no cascade point meets |REC delta| <= %.2f with compute cut >= %.0f%% — refusing to publish",
			CascadeRECTol, 100*CascadeMinComputeCut)
	}
	res.Selected = res.Points[best]

	t := NewTable(fmt.Sprintf("Early-inference cascade — %s (baseline EHCR REC=%.4f SPL=%.4f)",
		task.Name, baseline.REC, baseline.SPL),
		"ladder", "exit conf", "width", "REC Δ", "SPL Δ", "ms/horizon", "compute cut", "exit rates")
	for _, p := range res.Points {
		rates := make([]string, len(p.Rungs))
		for i, r := range p.Rungs {
			rates[i] = fmt.Sprintf("%s %.0f%%", r.Name, 100*r.ExitRate)
		}
		t.Addf(p.Ladder, fmt.Sprintf("%.2f", p.ExitConfidence), fmt.Sprintf("%.1f", p.MaxWidthFrac),
			fmt.Sprintf("%+.4f", p.RECDelta), fmt.Sprintf("%+.4f", p.SPLDelta),
			fmt.Sprintf("%.3f", p.MeanPredictMS), fmt.Sprintf("%.0f%%", 100*p.ComputeCut),
			strings.Join(rates, ", "))
	}
	t.Render(w)
	fmt.Fprintf(w, "selected: ladder %s at exit confidence %.2f, width %.1f — REC delta %+.4f, compute cut %.0f%%\n",
		res.Selected.Ladder, res.Selected.ExitConfidence, res.Selected.MaxWidthFrac,
		res.Selected.RECDelta, 100*res.Selected.ComputeCut)
	return res, nil
}

// checked lifts typed acceptance bounds — an invariant of the experiment,
// not a pinned value — to Experiment.Check: strict decode into the entry's
// result type, then the bounds.
func checked[T any](bounds func(*T) error) func([]byte) error {
	return func(raw []byte) error {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var res T
		if err := dec.Decode(&res); err != nil {
			return fmt.Errorf("does not match the %T schema: %w", res, err)
		}
		return bounds(&res)
	}
}

// cascadeBounds: the selected point holds EventHit's recall within
// CascadeRECTol at a compute cut of at least CascadeMinComputeCut, and at
// every point the integer exits sum to the horizons (so exit rates and
// compute shares each sum to 1).
func cascadeBounds(r *CascadeResult) error {
	if r.RECTol != CascadeRECTol || r.MinComputeCut != CascadeMinComputeCut {
		return fmt.Errorf("bars (%v, %v) drifted from the pinned constants (%v, %v)",
			r.RECTol, r.MinComputeCut, CascadeRECTol, CascadeMinComputeCut)
	}
	if r.BaselineREC <= 0 || r.BaselineREC > 1 || len(r.Points) == 0 {
		return fmt.Errorf("degenerate sweep: baseline REC %v, %d points", r.BaselineREC, len(r.Points))
	}
	for _, p := range r.Points {
		at := fmt.Sprintf("point %s conf=%v width=%v", p.Ladder, p.ExitConfidence, p.MaxWidthFrac)
		if p.Horizons <= 0 || len(p.Rungs) < 2 || p.Rungs[len(p.Rungs)-1].Name != "full" {
			return fmt.Errorf("%s: degenerate ladder %+v", at, p.Rungs)
		}
		var exits int64
		rateSum, shareSum := 0.0, 0.0
		for _, rung := range p.Rungs {
			if rung.Exits < 0 || rung.CostMS <= 0 {
				return fmt.Errorf("%s: degenerate rung %+v", at, rung)
			}
			exits += rung.Exits
			rateSum += rung.ExitRate
			shareSum += rung.ComputeShare
		}
		if exits != p.Horizons || math.Abs(rateSum-1) > 1e-9 || math.Abs(shareSum-1) > 1e-9 {
			return fmt.Errorf("%s: exits %d of %d horizons, exit rates sum to %v, compute shares to %v",
				at, exits, p.Horizons, rateSum, shareSum)
		}
		if math.Abs((1-p.ComputeFrac)-p.ComputeCut) > 1e-9 {
			return fmt.Errorf("%s: compute cut %v inconsistent with frac %v", at, p.ComputeCut, p.ComputeFrac)
		}
	}
	sel := r.Selected
	if math.Abs(sel.RECDelta) > r.RECTol {
		return fmt.Errorf("selected point REC delta %.4f exceeds the %.2f bound", sel.RECDelta, r.RECTol)
	}
	if sel.ComputeCut < r.MinComputeCut {
		return fmt.Errorf("selected point compute cut %.2f below the %.0f%% bound", sel.ComputeCut, 100*r.MinComputeCut)
	}
	return nil
}
