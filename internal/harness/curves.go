package harness

import (
	"eventhit/internal/dataset"
	"eventhit/internal/metrics"
	"eventhit/internal/strategy"
)

// Point is one evaluated operating point of an algorithm.
type Point struct {
	// Knob is the swept parameter value (c, α, τ_cox, τ_vqs, or a curve
	// index for joint sweeps).
	Knob float64
	// REC, SPL, RECc and RECr are the §VI.C measures at this setting.
	REC, SPL, RECc, RECr float64
	// Frames is the number of frames the setting would relay to the CI.
	Frames int
}

// Eval scores one strategy on the environment's test set.
func (e *Env) Eval(s strategy.Strategy, knob float64) (Point, error) {
	return e.score(e.Splits.Test, strategy.PredictAll(s, e.Splits.Test), knob)
}

func (e *Env) score(recs []dataset.Record, preds []metrics.Prediction, knob float64) (Point, error) {
	rec, err := metrics.REC(recs, preds)
	if err != nil {
		return Point{}, err
	}
	spl, err := metrics.SPL(recs, preds, e.Cfg.Horizon)
	if err != nil {
		return Point{}, err
	}
	recc, err := metrics.RECc(recs, preds)
	if err != nil {
		return Point{}, err
	}
	recr, err := metrics.RECr(recs, preds)
	if err != nil {
		return Point{}, err
	}
	return Point{
		Knob: knob, REC: rec, SPL: spl, RECc: recc, RECr: recr,
		Frames: metrics.FramesSent(preds),
	}, nil
}

// existence counts the truly positive (record, event) pairs in recs and how
// many of them s predicts to occur — REC_c's numerator and denominator.
func existence(s strategy.Strategy, recs []dataset.Record) (kept, pos int) {
	preds := strategy.PredictAll(s, recs)
	for n, r := range recs {
		for k, lab := range r.Label {
			if !lab {
				continue
			}
			pos++
			if preds[n].Occur[k] {
				kept++
			}
		}
	}
	return kept, pos
}

// headline scores the two operating points every overview row starts from,
// on the test split — EHO (raw thresholds) and EHCR at c = alpha = 0.9 —
// plus the EHCR curve over ConfidenceLevels, from which a row reads its
// best recall (maxREC) and its cost at REC >= 0.9 (MinSPLAtREC).
func (e *Env) headline() (eho, ehcr90 Point, curve []Point, err error) {
	if eho, err = e.Eval(e.Bundle.EHO(), 0); err != nil {
		return eho, ehcr90, nil, err
	}
	if ehcr90, err = e.Eval(e.ehcr90(), opLevel); err != nil {
		return eho, ehcr90, nil, err
	}
	curve, err = e.CurveEHCR(ConfidenceLevels())
	return eho, ehcr90, curve, err
}

// maxREC returns the point of highest recall (the first, on ties); the zero
// Point when no point has positive recall.
func maxREC(pts []Point) Point {
	var best Point
	for _, p := range pts {
		if p.REC > best.REC {
			best = p
		}
	}
	return best
}

// ConfidenceLevels is the default sweep grid for c and α.
func ConfidenceLevels() []float64 {
	return []float64{0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.95, 0.98, 0.995}
}

// CurveEHC sweeps C-CLASSIFY's confidence c.
func (e *Env) CurveEHC(levels []float64) ([]Point, error) {
	return e.sweep(levels, func(v float64) strategy.Strategy { return e.Bundle.EHC(v) })
}

// CurveEHR sweeps C-REGRESS's coverage α.
func (e *Env) CurveEHR(levels []float64) ([]Point, error) {
	return e.sweep(levels, func(v float64) strategy.Strategy { return e.Bundle.EHR(v) })
}

// CurveEHCR sweeps c and α jointly along the diagonal (c = α = level),
// which traces the REC-SPL trade-off frontier of Figure 4.
func (e *Env) CurveEHCR(levels []float64) ([]Point, error) {
	return e.sweep(levels, func(v float64) strategy.Strategy { return e.Bundle.EHCR(v, v) })
}

// CurveCox sweeps the Cox incidence threshold τ_cox.
func (e *Env) CurveCox(taus []float64) ([]Point, error) {
	return e.sweep(taus, func(v float64) strategy.Strategy { return e.Cox.WithTau(v) })
}

// CoxTaus is the default τ_cox sweep grid.
func CoxTaus() []float64 {
	return []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
}

// CurveVQS sweeps the VQS frame-count threshold τ_vqs.
func (e *Env) CurveVQS(taus []int) ([]Point, error) {
	pts := make([]Point, 0, len(taus))
	for _, tau := range taus {
		p, err := e.Eval(e.VQS.WithTau(tau), float64(tau))
		if err != nil {
			return nil, err
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// VQSTaus returns a sweep grid proportional to the horizon.
func VQSTaus(horizon int) []int {
	fracs := []float64{0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9}
	out := make([]int, len(fracs))
	for i, f := range fracs {
		out[i] = int(f * float64(horizon))
	}
	return out
}

func (e *Env) sweep(knobs []float64, mk func(float64) strategy.Strategy) ([]Point, error) {
	pts := make([]Point, 0, len(knobs))
	for _, v := range knobs {
		p, err := e.Eval(mk(v), v)
		if err != nil {
			return nil, err
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// AveragePoints averages per-knob points across trials; every trial must
// use the same knob grid.
func AveragePoints(trials [][]Point) []Point {
	if len(trials) == 0 {
		return nil
	}
	n := len(trials[0])
	out := make([]Point, n)
	for i := 0; i < n; i++ {
		out[i].Knob = trials[0][i].Knob
		for _, tr := range trials {
			out[i].REC += tr[i].REC
			out[i].SPL += tr[i].SPL
			out[i].RECc += tr[i].RECc
			out[i].RECr += tr[i].RECr
			out[i].Frames += tr[i].Frames
		}
		f := float64(len(trials))
		out[i].REC /= f
		out[i].SPL /= f
		out[i].RECc /= f
		out[i].RECr /= f
		out[i].Frames = int(float64(out[i].Frames) / f)
	}
	return out
}

// MinSPLAtREC returns the smallest SPL among points reaching at least the
// REC target, and whether any point qualifies.
func MinSPLAtREC(pts []Point, target float64) (float64, bool) {
	best, found := 0.0, false
	for _, p := range pts {
		if p.REC >= target && (!found || p.SPL < best) {
			best, found = p.SPL, true
		}
	}
	return best, found
}
