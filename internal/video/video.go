// Package video models the video streams EventHit consumes — not pixels,
// but the temporal ground truth that every experiment in the paper is about:
// event instances with occurrence intervals, stochastic arrivals, durations
// and censoring. A Stream is the simulated counterpart of an annotated
// VIRAT / THUMOS / Breakfast recording: the per-dataset specs encode
// Table I of the paper exactly (occurrence counts, mean and std of event
// durations), arrivals follow a Poisson process (the i.i.d. arrival model
// §I motivates), and each instance carries a precursor phase — the window
// of time before the event in which visual cues (an approaching truck, a
// player lining up a spike) are observable. The precursor is what makes
// prediction possible at all; its length and noise are the knobs that set
// task difficulty.
package video

import "fmt"

// Phase classifies a frame relative to a particular event type.
type Phase int

const (
	// Idle means no instance of the event type is near the frame.
	Idle Phase = iota
	// Precursor means the frame lies in the lead-up to an instance.
	Precursor
	// Active means the frame lies inside an occurrence interval.
	Active
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case Idle:
		return "idle"
	case Precursor:
		return "precursor"
	case Active:
		return "active"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Interval is an inclusive frame range [Start, End].
type Interval struct {
	Start, End int
}

// Len returns the number of frames in the interval (0 for an inverted one).
func (iv Interval) Len() int {
	if iv.End < iv.Start {
		return 0
	}
	return iv.End - iv.Start + 1
}

// Contains reports whether frame t lies inside the interval.
func (iv Interval) Contains(t int) bool { return t >= iv.Start && t <= iv.End }

// Overlaps reports whether the two intervals share at least one frame.
func (iv Interval) Overlaps(o Interval) bool {
	return iv.Start <= o.End && o.Start <= iv.End
}

// Intersect returns the overlap of the two intervals and whether it is
// non-empty.
func (iv Interval) Intersect(o Interval) (Interval, bool) {
	r := Interval{Start: max(iv.Start, o.Start), End: min(iv.End, o.End)}
	if r.End < r.Start {
		return Interval{}, false
	}
	return r, true
}

// String implements fmt.Stringer.
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.Start, iv.End) }

// Instance is one occurrence of an event type in a stream.
type Instance struct {
	// OI is the occurrence interval in absolute frame indices.
	OI Interval
	// PrecursorStart is the absolute frame at which pre-event cues become
	// observable; PrecursorStart <= OI.Start.
	PrecursorStart int
}
