package video

import (
	"sort"

	"eventhit/internal/mathx"
)

// Stream is a generated video stream: the frame count plus, per event type,
// the sorted list of instances. It is the ground truth every component
// (feature extraction, labels, the simulated CI, metrics) derives from.
type Stream struct {
	Spec DatasetSpec
	// N is the number of frames; frames are indexed 0..N-1.
	N int
	// ByType holds the instances of each event type, sorted by OI.Start and
	// non-overlapping within a type.
	ByType [][]Instance
}

// Generate produces a stream from spec. Arrivals of each event type follow
// an independent Poisson process whose rate is calibrated so the expected
// instance count matches spec's Table I occurrence count; durations are
// truncated normal with the Table I mean/std. Instances of the same type
// never overlap (the generator schedules the next arrival after the
// previous instance ends). Generation is deterministic given g.
func Generate(spec DatasetSpec, g *mathx.RNG) *Stream {
	return GenerateWith(spec, PoissonArrivals, 0, 1, g)
}

// sampleDuration draws an instance duration matching the Table I mean/std.
// A truncated normal is fine for low-variance events; for high coefficient
// of variation (std > mean/2) truncation at the duration floor would
// inflate the mean, so a moment-matched lognormal is used instead.
func sampleDuration(ev EventSpec, g *mathx.RNG) float64 {
	var d float64
	if ev.StdDur > 0.5*ev.MeanDur {
		d = g.LognormalMeanStd(ev.MeanDur, ev.StdDur)
	} else {
		d = g.TruncNormal(ev.MeanDur, ev.StdDur, minDuration, ev.MeanDur+4*ev.StdDur)
	}
	if d < minDuration {
		d = minDuration
	}
	return d
}

// NumTypes returns the number of event types in the stream.
func (s *Stream) NumTypes() int { return len(s.ByType) }

// firstEndingAtOrAfter returns the index of the first instance of type k
// whose OI.End >= t, or len when none.
func (s *Stream) firstEndingAtOrAfter(k, t int) int {
	ins := s.ByType[k]
	return sort.Search(len(ins), func(i int) bool { return ins[i].OI.End >= t })
}

// InstancesOverlapping returns the instances of type k whose occurrence
// interval overlaps win, in order.
func (s *Stream) InstancesOverlapping(k int, win Interval) []Instance {
	ins := s.ByType[k]
	var out []Instance
	for i := s.firstEndingAtOrAfter(k, win.Start); i < len(ins); i++ {
		if ins[i].OI.Start > win.End {
			break
		}
		out = append(out, ins[i])
	}
	return out
}

// FirstOverlapping returns the first instance of type k whose occurrence
// interval overlaps win, and whether one exists.
func (s *Stream) FirstOverlapping(k int, win Interval) (Instance, bool) {
	ins := s.ByType[k]
	i := s.firstEndingAtOrAfter(k, win.Start)
	if i < len(ins) && ins[i].OI.Start <= win.End {
		return ins[i], true
	}
	return Instance{}, false
}

// PhaseAt classifies frame t for event type k and returns a progress value:
// for Precursor, 0 at cue onset rising to 1 at event start; for Active, 0
// at event start rising to 1 at event end; 0 for Idle.
func (s *Stream) PhaseAt(k, t int) (Phase, float64) {
	ins := s.ByType[k]
	i := s.firstEndingAtOrAfter(k, t)
	if i >= len(ins) {
		return Idle, 0
	}
	in := ins[i]
	switch {
	case in.OI.Contains(t):
		if d := in.OI.Len() - 1; d > 0 {
			return Active, float64(t-in.OI.Start) / float64(d)
		}
		return Active, 1
	case t >= in.PrecursorStart && t < in.OI.Start:
		span := in.OI.Start - in.PrecursorStart
		return Precursor, float64(t-in.PrecursorStart+1) / float64(span)
	default:
		return Idle, 0
	}
}

// EventFrames returns the total number of frames covered by instances of
// type k inside win (used by OPT's cost accounting and SPL denominators).
func (s *Stream) EventFrames(k int, win Interval) int {
	total := 0
	for _, in := range s.InstancesOverlapping(k, win) {
		if ov, ok := in.OI.Intersect(win); ok {
			total += ov.Len()
		}
	}
	return total
}

// Durations returns the sampled durations of all instances of type k, for
// Table I style reporting.
func (s *Stream) Durations(k int) []float64 {
	out := make([]float64, len(s.ByType[k]))
	for i, in := range s.ByType[k] {
		out[i] = float64(in.OI.Len())
	}
	return out
}
