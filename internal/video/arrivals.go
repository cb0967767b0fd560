package video

import (
	"fmt"

	"eventhit/internal/mathx"
)

// ArrivalProcess selects the inter-event gap distribution. §I of the
// paper motivates i.i.d. arrivals "such as Poisson ... or geometric";
// Regular models near-periodic industrial processes (a conveyor belt).
type ArrivalProcess int

const (
	// PoissonArrivals draws exponential gaps (the default).
	PoissonArrivals ArrivalProcess = iota
	// GeometricArrivals draws geometric gaps (discrete memoryless).
	GeometricArrivals
	// RegularArrivals draws near-constant gaps with ±20% uniform jitter.
	RegularArrivals
)

// String implements fmt.Stringer.
func (a ArrivalProcess) String() string {
	switch a {
	case PoissonArrivals:
		return "poisson"
	case GeometricArrivals:
		return "geometric"
	case RegularArrivals:
		return "regular"
	default:
		return "unknown"
	}
}

// sampleGap draws one inter-event gap with the requested process and mean.
func sampleGap(p ArrivalProcess, mean float64, g *mathx.RNG) int {
	switch p {
	case GeometricArrivals:
		// Geometric with success probability 1/mean has mean ~ mean-1 ≈ mean.
		return g.Geometric(1 / mean)
	case RegularArrivals:
		jitter := 0.2 * mean
		return int(mean - jitter + 2*jitter*g.Float64())
	default:
		return int(g.Exponential(1 / mean))
	}
}

// GenerateWith produces a stream like Generate but with an explicit
// arrival process and a rate multiplier applied from frame shiftAt on
// (rateScale > 1 means events arrive more often after the shift;
// rateScale == 1 or shiftAt >= StreamLen gives a stationary stream).
// This is the workload for the drift-adaptation extension (§VIII's
// future-work direction implemented in internal/drift).
func GenerateWith(spec DatasetSpec, proc ArrivalProcess, shiftAt int, rateScale float64, g *mathx.RNG) *Stream {
	if rateScale <= 0 {
		rateScale = 1
	}
	if shiftAt <= 0 {
		shiftAt = spec.StreamLen
	}
	s := &Stream{Spec: spec, N: spec.StreamLen, ByType: make([][]Instance, len(spec.Events))}
	for k, ev := range spec.Events {
		s.ByType[k] = generateTypeWith(k, ev, spec.StreamLen, proc, shiftAt, rateScale, g.Split(int64(ev.ID)))
	}
	return s
}

func generateTypeWith(k int, ev EventSpec, n int, proc ArrivalProcess, shiftAt int, rateScale float64, g *mathx.RNG) []Instance {
	meanGap := float64(n)/float64(ev.Occurrences) - ev.MeanDur
	if meanGap <= 1 {
		panic(fmt.Sprintf("video: event %s too dense for stream length %d", ev.Name, n))
	}
	var out []Instance
	t := 0
	for {
		mg := meanGap
		if t >= shiftAt {
			mg = meanGap / rateScale
			if mg < 1 {
				mg = 1
			}
		}
		start := t + sampleGap(proc, mg, g)
		dur := int(sampleDuration(ev, g))
		end := start + dur - 1
		if end >= n {
			break
		}
		pre := int(g.TruncNormal(ev.PrecursorMean, ev.PrecursorStd, 1, ev.PrecursorMean+4*ev.PrecursorStd))
		ps := start - pre
		if ps < 0 {
			ps = 0
		}
		out = append(out, Instance{OI: Interval{Start: start, End: end}, PrecursorStart: ps})
		t = end + 1
	}
	return out
}
