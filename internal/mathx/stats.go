package mathx

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Sum(x) / float64(len(x))
}

// Std returns the population standard deviation of x (divisor n, not the
// sample n-1), or 0 when len(x) < 2.
//
// The divisor is a deliberate, load-bearing choice. Table I reports the
// duration std of each real dataset's event instances, and the stream
// generator treats that number as the *distribution* parameter of its
// truncated-normal duration model — a population quantity. At Table I's
// instance counts (hundreds to thousands per event type) the n vs n-1
// correction is under 1%, far inside the generator's calibration
// tolerance (TestGenerateStdRoughlyMatches accepts [80,220] for a target
// of 158.8), so either divisor would calibrate identically; what must NOT
// happen is the divisor changing silently, because Std also standardizes
// Cox covariates (strategy/cox.go) where a switch would perturb every
// fitted baseline. TestStdUsesPopulationDivisor pins the n divisor.
func Std(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var ss float64
	for _, v := range x {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(x)))
}

// CeilQuantile returns the ceil(alpha*n)-th smallest value of x (1-based),
// the order statistic used by split conformal regression (Algorithm 2,
// lines 15-16). The index is clamped to [1, n] so alpha <= 0 yields the
// minimum and alpha >= 1 the maximum. It panics on an empty slice.
//
// x is not modified.
func CeilQuantile(x []float64, alpha float64) float64 {
	if len(x) == 0 {
		panic("mathx: CeilQuantile of empty slice")
	}
	sorted := Clone(x)
	sort.Float64s(sorted)
	k := int(math.Ceil(alpha * float64(len(sorted))))
	k = ClampInt(k, 1, len(sorted))
	return sorted[k-1]
}

// Summary bundles count, mean and standard deviation of a sample; it is
// what Table I reports for event durations.
type Summary struct {
	N    int
	Mean float64
	Std  float64
}

// Summarize computes a Summary of x.
func Summarize(x []float64) Summary {
	return Summary{N: len(x), Mean: Mean(x), Std: Std(x)}
}

// String renders the summary the way Table I prints duration columns.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d avg=%.1f std=%.1f", s.N, s.Mean, s.Std)
}
