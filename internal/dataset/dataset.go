// Package dataset assembles the training triplets of §II: for an anchor
// frame T_i it extracts covariates X_i (an M x D collection window), the
// set L_i of task events whose occurrence intervals intersect the time
// horizon (T_i, T_i+H], the horizon-relative occurrence intervals T_i (with
// offsets in [1, H]) and the censoring indicators Γ_i (an event whose
// interval runs past the horizon end is censored and its end is clipped to
// H, exactly as in Figure 2 of the paper).
//
// The stream is partitioned into train / calibration / test regions in
// stream order (training happens on the prefix f_1..f_P, predictions are
// for T_j > T_P). Calibration and test records are sampled uniformly at
// random and therefore exchangeably — the assumption both conformal
// theorems rest on. Training records may optionally be stratified toward
// positives, which affects nothing but learning speed.
package dataset

import (
	"fmt"

	"eventhit/internal/video"
)

// Source is the feature provider the dataset builders consume.
// features.Extractor satisfies it, and so does features.CachedSource.
// Covariates may be called concurrently (the marshaller builds a run's
// records on every core), and the other methods only read.
type Source interface {
	// Covariates returns the M x D matrix for the window ending at t.
	Covariates(t, m int) ([][]float64, error)
	// Dim is the channel count D.
	Dim() int
	// NumEvents is the task event count K.
	NumEvents() int
	// Events lists the stream event-type indices of the task.
	Events() []int
	// Stream exposes the ground-truth stream.
	Stream() *video.Stream
}

// Record is one triplet (X_i, L_i, T_i) plus the censoring indicators.
// Slices indexed by task-event position (0..K-1).
type Record struct {
	// Frame is the absolute anchor frame T_i.
	Frame int
	// X is the M x D covariate matrix for the collection window ending at
	// Frame.
	X [][]float64
	// Label[k] reports whether task event k occurs in the horizon
	// (E_k ∈ L_i).
	Label []bool
	// OI[k] is the occurrence interval in horizon-relative offsets
	// (1-based, both ends in [1, H]); valid only when Label[k].
	OI []video.Interval
	// Censored[k] reports whether event k's interval was clipped at H.
	Censored []bool
	// AllOI, when non-nil, lists EVERY instance of each event in the
	// horizon (1-based offsets) — the multi-instance extension of §II
	// footnote 1. OI still holds the first instance, so single-instance
	// consumers are unaffected. Built by BuildRecordMulti.
	AllOI [][]video.Interval
}

// NumPositive returns how many task events occur in the record's horizon.
func (r Record) NumPositive() int {
	n := 0
	for _, l := range r.Label {
		if l {
			n++
		}
	}
	return n
}

// Config fixes the window and horizon geometry for record construction.
type Config struct {
	Window  int // M
	Horizon int // H
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("dataset: window %d must be positive", c.Window)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("dataset: horizon %d must be positive", c.Horizon)
	}
	return nil
}

// BuildRecord constructs the record anchored at frame t. The anchor must
// leave room for the collection window ([t-M+1, t] within the stream) and
// the horizon ((t, t+H] within the stream).
func BuildRecord(ex Source, t int, cfg Config) (Record, error) {
	if err := cfg.Validate(); err != nil {
		return Record{}, err
	}
	st := ex.Stream()
	if t+cfg.Horizon >= st.N {
		return Record{}, fmt.Errorf("dataset: horizon of anchor %d exceeds stream length %d", t, st.N)
	}
	x, err := ex.Covariates(t, cfg.Window)
	if err != nil {
		return Record{}, err
	}
	r := Record{
		Frame:    t,
		X:        x,
		Label:    make([]bool, ex.NumEvents()),
		OI:       make([]video.Interval, ex.NumEvents()),
		Censored: make([]bool, ex.NumEvents()),
	}
	FillLabels(ex, t, cfg.Horizon, &r)
	return r, nil
}

// FillLabels computes L_i, T_i and Γ_i for anchor t into r (Label, OI,
// Censored must be allocated with length K). It is exposed separately so
// label-only consumers (OPT, BF, metrics denominators) can skip feature
// extraction.
func FillLabels(ex Source, t, horizon int, r *Record) {
	st := ex.Stream()
	hwin := video.Interval{Start: t + 1, End: t + horizon}
	for ci, k := range ex.Events() {
		in, ok := st.FirstOverlapping(k, hwin)
		if !ok {
			r.Label[ci] = false
			r.OI[ci] = video.Interval{}
			r.Censored[ci] = false
			continue
		}
		r.Label[ci] = true
		s := in.OI.Start - t
		if s < 1 {
			s = 1 // event already ongoing at the anchor: clip to offset 1
		}
		e := in.OI.End - t
		r.Censored[ci] = e > horizon
		if r.Censored[ci] {
			e = horizon
		}
		r.OI[ci] = video.Interval{Start: s, End: e}
	}
}

// BuildRecordMulti is BuildRecord plus the multi-instance ground truth:
// AllOI[k] lists every instance of event k in the horizon.
func BuildRecordMulti(ex Source, t int, cfg Config) (Record, error) {
	r, err := BuildRecord(ex, t, cfg)
	if err != nil {
		return Record{}, err
	}
	r.AllOI = make([][]video.Interval, ex.NumEvents())
	for k := range r.AllOI {
		r.AllOI[k] = HorizonInstances(ex, t, cfg.Horizon, k)
	}
	return r, nil
}

// LabelRecord builds a record with labels only (no covariates).
func LabelRecord(ex Source, t int, cfg Config) Record {
	k := ex.NumEvents()
	r := Record{
		Frame:    t,
		Label:    make([]bool, k),
		OI:       make([]video.Interval, k),
		Censored: make([]bool, k),
	}
	FillLabels(ex, t, cfg.Horizon, &r)
	return r
}

// HorizonInstances returns the occurrence intervals (in 1-based horizon
// offsets, clipped to [1, H]) of ALL instances of task event k whose
// intervals intersect the horizon of anchor t — the ground truth for the
// multi-instance extension of §II footnote 1, where Record keeps only the
// first instance.
func HorizonInstances(ex Source, t, horizon, k int) []video.Interval {
	st := ex.Stream()
	hwin := video.Interval{Start: t + 1, End: t + horizon}
	var out []video.Interval
	for _, in := range st.InstancesOverlapping(ex.Events()[k], hwin) {
		s := in.OI.Start - t
		if s < 1 {
			s = 1
		}
		e := in.OI.End - t
		if e > horizon {
			e = horizon
		}
		out = append(out, video.Interval{Start: s, End: e})
	}
	return out
}
