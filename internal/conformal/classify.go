// Package conformal implements the paper's two optimizations: C-CLASSIFY
// (Algorithm 1), conformal event-existence prediction, and C-REGRESS
// (Algorithm 2), conformal occurrence-interval prediction. Both are
// deliberately decoupled from EventHit: they consume only scores and
// residuals, so — as §VII stresses — they can wrap any model that predicts
// event existence probabilities and occurrence intervals.
package conformal

import (
	"fmt"
	"sort"

	"eventhit/internal/mathx"
	"eventhit/internal/video"
)

// Classifier is a calibrated C-CLASSIFY instance. For each event it holds
// the sorted existence scores b_k^(n) of the calibration records in which
// the event actually occurs (E_k ∈ L_n); Algorithm 1's p-value only ranks
// against those positives.
type Classifier struct {
	// posScores[k] is sorted ascending.
	posScores [][]float64
}

// NewClassifier calibrates from per-record existence scores and ground
// truth labels: calibB[n][k] is the model's b_k for calibration record n,
// calibLabel[n][k] its true label. Every event must have at least one
// positive calibration record (otherwise no p-value is defined for it).
func NewClassifier(calibB [][]float64, calibLabel [][]bool) (*Classifier, error) {
	if len(calibB) == 0 || len(calibB) != len(calibLabel) {
		return nil, fmt.Errorf("conformal: calibration sets empty or mismatched (%d vs %d)",
			len(calibB), len(calibLabel))
	}
	k := len(calibB[0])
	c := &Classifier{posScores: make([][]float64, k)}
	for n := range calibB {
		if len(calibB[n]) != k || len(calibLabel[n]) != k {
			return nil, fmt.Errorf("conformal: record %d has inconsistent event count", n)
		}
		for j := 0; j < k; j++ {
			if calibLabel[n][j] {
				c.posScores[j] = append(c.posScores[j], calibB[n][j])
			}
		}
	}
	for j := 0; j < k; j++ {
		if len(c.posScores[j]) == 0 {
			return nil, fmt.Errorf("conformal: event %d has no positive calibration records", j)
		}
		sort.Float64s(c.posScores[j])
	}
	return c, nil
}

// NumEvents returns the number of calibrated events K.
func (c *Classifier) NumEvents() int { return len(c.posScores) }

// NumPositives returns the positive calibration count for event k.
func (c *Classifier) NumPositives(k int) int { return len(c.posScores[k]) }

// PValue computes Algorithm 1 line 7 for event k given the new record's
// existence score b. With the non-conformity measure a = 1 - b,
// a_o <= a_n is equivalent to b_n <= b_o, so the p-value is the fraction
// of positive calibration scores at or below b:
//
//	p = |{n : E_k ∈ L_n and b_n <= b}| / (|{n : E_k ∈ L_n}| + 1)
func (c *Classifier) PValue(k int, b float64) float64 {
	ps := c.posScores[k]
	// count of sorted scores <= b
	cnt := sort.SearchFloat64s(ps, b)
	for cnt < len(ps) && ps[cnt] == b {
		cnt++
	}
	return float64(cnt) / float64(len(ps)+1)
}

// Predict applies Equation (9): event k is in the estimated positive set
// when its p-value is at least 1-confidence.
func (c *Classifier) Predict(b []float64, confidence float64) []bool {
	if len(b) != len(c.posScores) {
		panic(fmt.Sprintf("conformal: %d scores for %d events", len(b), len(c.posScores)))
	}
	out := make([]bool, len(b))
	for k, bk := range b {
		out[k] = c.PValue(k, bk) >= 1-confidence
	}
	return out
}

// Regressor is a calibrated C-REGRESS instance: per event, the sorted
// absolute residuals of the start and end estimates over positive
// calibration records (Algorithm 2 lines 5-14).
type Regressor struct {
	horizon  int
	startRes [][]float64 // sorted ascending per event
	endRes   [][]float64
}

// NewRegressor calibrates from per-event residual sets. startRes[k] and
// endRes[k] hold |T̂ - T| for every positive calibration record of event k;
// both must be non-empty for every event.
func NewRegressor(horizon int, startRes, endRes [][]float64) (*Regressor, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("conformal: horizon %d must be positive", horizon)
	}
	if len(startRes) == 0 || len(startRes) != len(endRes) {
		return nil, fmt.Errorf("conformal: residual sets empty or mismatched (%d vs %d)",
			len(startRes), len(endRes))
	}
	r := &Regressor{
		horizon:  horizon,
		startRes: make([][]float64, len(startRes)),
		endRes:   make([][]float64, len(endRes)),
	}
	for k := range startRes {
		if len(startRes[k]) == 0 || len(endRes[k]) == 0 {
			return nil, fmt.Errorf("conformal: event %d has no calibration residuals", k)
		}
		r.startRes[k] = mathx.Clone(startRes[k])
		r.endRes[k] = mathx.Clone(endRes[k])
		sort.Float64s(r.startRes[k])
		sort.Float64s(r.endRes[k])
	}
	return r, nil
}

// NumEvents returns the number of calibrated events K.
func (r *Regressor) NumEvents() int { return len(r.startRes) }

// Quantiles returns (q̂_k^s, q̂_k^e), the ceil(α·|R_k|)-th smallest start
// and end residuals (Algorithm 2 lines 15-16).
func (r *Regressor) Quantiles(k int, alpha float64) (qs, qe float64) {
	qs = sortedCeilQuantile(r.startRes[k], alpha)
	qe = sortedCeilQuantile(r.endRes[k], alpha)
	return qs, qe
}

func sortedCeilQuantile(sorted []float64, alpha float64) float64 {
	k := int(mathx.Clamp(float64(len(sorted))*alpha, 0, float64(len(sorted))))
	if float64(k) < alpha*float64(len(sorted)) {
		k++
	}
	k = mathx.ClampInt(k, 1, len(sorted))
	return sorted[k-1]
}

// Adjust applies Algorithm 2 lines 17-18 to a predicted occurrence
// interval for event k: the start moves earlier by q̂^s (floored at 1) and
// the end later by q̂^e (capped at H).
func (r *Regressor) Adjust(k int, iv video.Interval, alpha float64) video.Interval {
	qs, qe := r.Quantiles(k, alpha)
	return video.Interval{
		Start: mathx.ClampInt(iv.Start-int(qs), 1, r.horizon),
		End:   mathx.ClampInt(iv.End+int(qe), 1, r.horizon),
	}
}
