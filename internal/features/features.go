// Package features turns the latent scene state of a simulated video stream
// into the covariates EventHit consumes — the role YOLOv3 / Faster R-CNN
// feature extraction plays in the paper (§VI.A). For every event type in a
// task it emits the kind of descriptive channels the paper lists (presence
// of relevant objects, a distance-like proximity value, an activity
// indicator), plus shared scene channels (object count, motion energy, a
// pure-noise distractor). A configurable detector noise model (missed
// detections, false positives, measurement jitter) makes the covariates
// imperfect, which is what keeps prediction non-trivial.
//
// Feature values are produced by counter-based randomness keyed on
// (stream seed, frame, channel), so a frame's feature vector is identical
// no matter when or how often it is extracted — exactly like re-running a
// real detector on the same frame.
package features

import (
	"fmt"

	"eventhit/internal/mathx"
	"eventhit/internal/video"
)

// ChannelsPerEvent is the number of per-event feature channels.
const ChannelsPerEvent = 3

// GlobalChannels is the number of shared scene channels.
const GlobalChannels = 3

// DetectorConfig models the imperfections of the lightweight detector used
// for feature extraction.
type DetectorConfig struct {
	// MissRate is the probability an active cue is not detected in a frame.
	MissRate float64
	// FPRate is the probability an idle frame produces a spurious cue.
	FPRate float64
	// Jitter is the standard deviation of additive noise on continuous
	// channels.
	Jitter float64
	// CueGain scales the precursor/active cue signal toward the idle
	// baseline; 1 (and 0 for the zero value, treated as 1) is full signal,
	// values below 1 wash the cues out — a camera knocked off its framing.
	CueGain float64
}

// cueGain returns the effective gain, treating the zero value as 1 so the
// zero DetectorConfig stays usable.
func (c DetectorConfig) cueGain() float64 {
	if c.CueGain == 0 {
		return 1
	}
	return c.CueGain
}

// DefaultDetector returns the noise profile used across the experiments: a
// decent but imperfect frame-level detector.
func DefaultDetector() DetectorConfig {
	return DetectorConfig{MissRate: 0.08, FPRate: 0.02, Jitter: 0.10}
}

// Extractor produces feature vectors for a fixed task (a subset of the
// stream's event types).
type Extractor struct {
	stream *video.Stream
	events []int // event-type indices within the stream included in the task
	cfg    DetectorConfig
	seed   uint64

	// drifting-detector support (see NewDriftingExtractor)
	cfgAfter    *DetectorConfig
	switchFrame int
}

// configAt returns the detector profile in effect at frame t.
func (e *Extractor) configAt(t int) DetectorConfig {
	if e.cfgAfter != nil && t >= e.switchFrame {
		return *e.cfgAfter
	}
	return e.cfg
}

// NewDriftingExtractor returns an extractor whose detector degrades at
// switchFrame: frames before it use cfgBefore, frames at or after it use
// cfgAfter. It models real deployments where the camera is moved, lighting
// changes or the detector is swapped — the covariate-drift scenario the
// internal/drift package detects and recovers from.
func NewDriftingExtractor(stream *video.Stream, events []int, cfgBefore, cfgAfter DetectorConfig, switchFrame int, seed int64) (*Extractor, error) {
	e, err := NewExtractor(stream, events, cfgBefore, seed)
	if err != nil {
		return nil, err
	}
	if switchFrame < 0 {
		return nil, fmt.Errorf("features: negative switch frame %d", switchFrame)
	}
	e.cfgAfter = &cfgAfter
	e.switchFrame = switchFrame
	return e, nil
}

// NewExtractor returns an extractor over stream for the given event-type
// indices. seed keys the deterministic detector noise.
func NewExtractor(stream *video.Stream, events []int, cfg DetectorConfig, seed int64) (*Extractor, error) {
	for _, k := range events {
		if k < 0 || k >= stream.NumTypes() {
			return nil, fmt.Errorf("features: event index %d out of range [0,%d)", k, stream.NumTypes())
		}
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("features: task must include at least one event")
	}
	return &Extractor{stream: stream, events: events, cfg: cfg, seed: uint64(seed)}, nil
}

// Dim returns the feature dimensionality D = 3*K + 3.
func (e *Extractor) Dim() int { return ChannelsPerEvent*len(e.events) + GlobalChannels }

// NumEvents returns the number of task events K.
func (e *Extractor) NumEvents() int { return len(e.events) }

// FrameVector extracts the D-dimensional feature vector of frame t,
// appending into dst (which may be nil).
func (e *Extractor) FrameVector(t int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, 0, e.Dim())
	}
	cfg := e.configAt(t)
	// Every noise draw of the frame hashes (seed, t, ...), and every draw
	// of an event (seed, t, event, ...): those prefixes are folded once.
	frame := mathx.HashOf(e.seed, uint64(t))
	var totalActivity, motion float64
	for ci, k := range e.events {
		phase, prog := e.stream.PhaseAt(k, t)
		cueNoise := e.stream.Spec.Events[k].CueNoise
		ev := frame.With(uint64(ci))

		// cue: ramps 0->1 through the precursor, holds 1 while active.
		var cue float64
		switch phase {
		case video.Precursor:
			cue = prog
		case video.Active:
			cue = 1
		}
		// proximity: distance-like, 1 far -> 0 at event start, 0 while active.
		prox := 1.0
		switch phase {
		case video.Precursor:
			prox = 1 - prog
		case video.Active:
			prox = 0
		}
		// Intrinsic ambiguity: with probability CueNoise the cue reading is
		// replaced by an uninformative uniform (a look-alike scene).
		if ev.With(0).Unit() < cueNoise {
			cue = ev.With(1).Unit()
			prox = ev.With(2).Unit()
		}
		// Signal attenuation (CueGain < 1 pulls cues toward the idle
		// baseline), then detector jitter on continuous channels.
		gain := cfg.cueGain()
		cue *= gain
		prox = 1 - (1-prox)*gain
		cue = mathx.Clamp(cue+cfg.Jitter*ev.With(3).Normal(), 0, 1)
		prox = mathx.Clamp(prox+cfg.Jitter*ev.With(4).Normal(), 0, 1)

		// active: the detector's binary report of the event configuration.
		active := 0.0
		if phase == video.Active {
			if ev.With(5).Unit() >= cfg.MissRate {
				active = 1
			}
		} else if ev.With(5).Unit() < cfg.FPRate {
			active = 1
		}

		dst = append(dst, cue, prox, active)
		totalActivity += active
		motion += cue
	}
	kf := float64(len(e.events))
	// objectCount: activity plus background clutter, normalized to ~[0,1].
	clutterCount := frame.With(1000).Unit() * 0.3
	dst = append(dst, mathx.Clamp((totalActivity+clutterCount)/(kf+0.3), 0, 1))
	// motionEnergy: mean cue level with jitter.
	dst = append(dst, mathx.Clamp(motion/kf+cfg.Jitter*frame.With(1001).Normal(), 0, 1))
	// clutter: a pure-noise distractor channel.
	dst = append(dst, frame.With(1002).Unit())
	return dst
}

// Covariates extracts the M x D covariate matrix for the collection window
// ending at frame t (inclusive), i.e. frames t-M+1 .. t. It returns an
// error when the window would start before frame 0 or end past the stream.
func (e *Extractor) Covariates(t, m int) ([][]float64, error) {
	if m <= 0 {
		return nil, fmt.Errorf("features: window size %d must be positive", m)
	}
	if t-m+1 < 0 || t >= e.stream.N {
		return nil, fmt.Errorf("features: window [%d,%d] outside stream of %d frames", t-m+1, t, e.stream.N)
	}
	out := make([][]float64, m)
	for i := 0; i < m; i++ {
		out[i] = e.FrameVector(t-m+1+i, nil)
	}
	return out, nil
}

// bgObjectRate is the probability that the objects associated with an
// event type are visible in a frame with no event nearby (a parked car, a
// person walking through). It is what makes object-presence filtering
// (BlazeIt/VQS-style) imprecise: objects routinely appear without the
// event of interest.
const bgObjectRate = 0.25

// ObjectsVisible reports whether the cheap specialized detector sees the
// object types associated with task event ci at frame t. Objects are
// visible through the precursor and active phases (minus misses) and with
// probability bgObjectRate otherwise. This is the per-frame signal the VQS
// baseline counts and thresholds.
func (e *Extractor) ObjectsVisible(ci, t int) bool {
	k := e.events[ci]
	cfg := e.configAt(t)
	phase, _ := e.stream.PhaseAt(k, t)
	if phase == video.Precursor || phase == video.Active {
		return mathx.Hash01(e.seed, uint64(t), uint64(ci), 6) >= cfg.MissRate
	}
	return mathx.Hash01(e.seed, uint64(t), uint64(ci), 6) < bgObjectRate
}

// Stream returns the underlying stream.
func (e *Extractor) Stream() *video.Stream { return e.stream }

// Events returns the stream event-type indices of the task (do not modify).
func (e *Extractor) Events() []int { return e.events }
