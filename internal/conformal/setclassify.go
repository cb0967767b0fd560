package conformal

import (
	"fmt"
	"sort"
)

// SetClassifier is the two-sided extension of C-CLASSIFY the early-
// inference cascade needs. The one-sided Classifier ranks a new score only
// against the positive calibration population, which yields a single
// thresholded bit; a cascade rung must instead know whether a score is
// DECISIVE — conformally consistent with exactly one of the two labels.
// SetClassifier therefore adds the negative population to a Classifier and
// returns a conformal label set over {occur, absent}: a label enters the
// set when the new score is not too nonconforming for that label's
// calibration records. A singleton set is a confident answer the rung may
// act on; an empty or two-element set is ambiguity the cascade escalates.
type SetClassifier struct {
	// occur decides the "occur" label: its p-value ranks a score against
	// the positive calibration population, which is all C-CLASSIFY keeps.
	occur *Classifier
	// neg[k] holds the existence scores b_k of the calibration records
	// where event k does not occur, sorted ascending.
	neg [][]float64
}

// NewSetClassifier adds the "absent" side to a calibrated C-CLASSIFY
// instance, from the per-record existence scores and ground truth labels
// occur was calibrated on (same inputs as NewClassifier; only the negative
// records are read). Every event needs at least one negative calibration
// record — occur already holds a positive one — since without both
// populations no two-sided p-value is defined.
func NewSetClassifier(occur *Classifier, calibB [][]float64, calibLabel [][]bool) (*SetClassifier, error) {
	if occur == nil {
		return nil, fmt.Errorf("conformal: nil classifier")
	}
	if len(calibB) == 0 || len(calibB) != len(calibLabel) {
		return nil, fmt.Errorf("conformal: calibration sets empty or mismatched (%d vs %d)",
			len(calibB), len(calibLabel))
	}
	k := occur.NumEvents()
	c := &SetClassifier{occur: occur, neg: make([][]float64, k)}
	for n := range calibB {
		if len(calibB[n]) != k || len(calibLabel[n]) != k {
			return nil, fmt.Errorf("conformal: record %d has inconsistent event count", n)
		}
		for j := 0; j < k; j++ {
			if !calibLabel[n][j] {
				c.neg[j] = append(c.neg[j], calibB[n][j])
			}
		}
	}
	for j := 0; j < k; j++ {
		if len(c.neg[j]) == 0 {
			return nil, fmt.Errorf("conformal: event %d has no negative calibration records", j)
		}
		sort.Float64s(c.neg[j])
	}
	return c, nil
}

// PValueNeg is the p-value of score b under the "absent" hypothesis for
// event k: with nonconformity a = b, the fraction of negative calibration
// scores at or above b. (The "occur" hypothesis is Classifier.PValue.)
func (c *SetClassifier) PValueNeg(k int, b float64) float64 {
	ns := c.neg[k]
	// count of sorted scores >= b
	cnt := len(ns) - sort.SearchFloat64s(ns, b)
	return float64(cnt) / float64(len(ns)+1)
}

// LabelSet is a conformal set over the two existence labels of one event.
type LabelSet struct {
	Occur  bool
	Absent bool
}

// Singleton reports whether exactly one label survived — the cascade's
// decisiveness test. Its value is then Occur.
func (s LabelSet) Singleton() bool { return s.Occur != s.Absent }

// Set returns the conformal label set for event k at the given confidence:
// a label is included when its p-value is at least 1-confidence (the same
// inclusion rule as Equation (9), applied to both hypotheses). Higher
// confidence admits more labels, so sets grow — and singletons get rarer
// but more trustworthy: among exchangeable positives, at most a
// 1-confidence fraction yields a set that excludes "occur".
func (c *SetClassifier) Set(k int, b, confidence float64) LabelSet {
	return LabelSet{
		Occur:  c.occur.PValue(k, b) >= 1-confidence,
		Absent: c.PValueNeg(k, b) >= 1-confidence,
	}
}
