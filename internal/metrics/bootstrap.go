package metrics

import (
	"fmt"
	"sort"

	"eventhit/internal/dataset"
	"eventhit/internal/mathx"
)

// CI is a two-sided bootstrap confidence interval around a point estimate.
type CI struct {
	Point, Lo, Hi float64
}

// String renders "0.842 [0.815, 0.868]".
func (c CI) String() string {
	return fmt.Sprintf("%.3f [%.3f, %.3f]", c.Point, c.Lo, c.Hi)
}

// metricFn evaluates a metric on a subset of (record, prediction) pairs.
type metricFn func(recs []dataset.Record, preds []Prediction) (float64, error)

// bootstrapCI resamples records with replacement and returns the
// percentile interval at the given level (e.g. 0.95).
func bootstrapCI(recs []dataset.Record, preds []Prediction, fn metricFn,
	resamples int, level float64, g *mathx.RNG) (CI, error) {
	if len(recs) != len(preds) || len(recs) == 0 {
		return CI{}, fmt.Errorf("metrics: bootstrap needs aligned non-empty inputs")
	}
	if resamples < 10 {
		return CI{}, fmt.Errorf("metrics: at least 10 resamples required")
	}
	if level <= 0 || level >= 1 {
		return CI{}, fmt.Errorf("metrics: level %v must be in (0,1)", level)
	}
	point, err := fn(recs, preds)
	if err != nil {
		return CI{}, err
	}
	n := len(recs)
	vals := make([]float64, 0, resamples)
	rr := make([]dataset.Record, n)
	pp := make([]Prediction, n)
	for b := 0; b < resamples; b++ {
		for i := 0; i < n; i++ {
			j := g.Intn(n)
			rr[i], pp[i] = recs[j], preds[j]
		}
		v, err := fn(rr, pp)
		if err != nil {
			continue // e.g. a resample with no positives: drop it
		}
		vals = append(vals, v)
	}
	if len(vals) < resamples/2 {
		return CI{}, fmt.Errorf("metrics: too many degenerate bootstrap resamples (%d of %d usable)",
			len(vals), resamples)
	}
	sort.Float64s(vals)
	lo := (1 - level) / 2
	hi := 1 - lo
	idx := func(q float64) float64 {
		i := int(q * float64(len(vals)-1))
		return vals[i]
	}
	return CI{Point: point, Lo: idx(lo), Hi: idx(hi)}, nil
}

// RECBootstrap returns REC with a percentile-bootstrap confidence interval
// over test records (record-level resampling).
func RECBootstrap(recs []dataset.Record, preds []Prediction, resamples int, level float64, seed int64) (CI, error) {
	return bootstrapCI(recs, preds, REC, resamples, level, mathx.NewRNG(seed))
}
