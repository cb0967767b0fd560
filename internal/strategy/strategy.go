// Package strategy implements every algorithm compared in §VI.B behind a
// single interface: the four EventHit variants (EHO, EHC, EHR, EHCR), the
// oracle OPT, the brute force BF, the Cox proportional-hazards baseline,
// the BlazeIt-style video-query baseline VQS, and a point-process arrival
// predictor in the spirit of APP-VAE. Each strategy maps one test record
// to a per-event prediction; the metrics package scores them all the same
// way.
package strategy

import (
	"runtime"

	"eventhit/internal/dataset"
	"eventhit/internal/mathx"
	"eventhit/internal/metrics"
	"eventhit/internal/video"
)

// Strategy is one compared algorithm.
type Strategy interface {
	// Name returns the paper's label for the algorithm.
	Name() string
	// Predict maps a record to per-event occurrence predictions. It is safe
	// for concurrent use, and a record's prediction does not depend on what
	// was predicted before it or alongside it.
	Predict(rec dataset.Record) metrics.Prediction
}

// Opt is the theoretically optimal approach: full knowledge of the true
// event intervals, relaying exactly the event frames (§VI.B item 5).
type Opt struct{}

// Name implements Strategy.
func (Opt) Name() string { return "OPT" }

// Predict implements Strategy.
func (Opt) Predict(rec dataset.Record) metrics.Prediction {
	p := metrics.Prediction{
		Occur: make([]bool, len(rec.Label)),
		OI:    make([]video.Interval, len(rec.Label)),
	}
	copy(p.Occur, rec.Label)
	copy(p.OI, rec.OI)
	return p
}

// BF is the brute-force approach: every frame of every horizon is relayed
// to the CI (§VI.B item 6).
type BF struct {
	// Horizon is the time-horizon length H.
	Horizon int
}

// Name implements Strategy.
func (BF) Name() string { return "BF" }

// Predict implements Strategy.
func (b BF) Predict(rec dataset.Record) metrics.Prediction {
	k := len(rec.Label)
	p := metrics.Prediction{Occur: make([]bool, k), OI: make([]video.Interval, k)}
	for i := 0; i < k; i++ {
		p.Occur[i] = true
		p.OI[i] = video.Interval{Start: 1, End: b.Horizon}
	}
	return p
}

// PredictAll runs s over every record on runtime.GOMAXPROCS(0) workers,
// each prediction stored at its record's index: the serial loop's result
// at any worker count.
func PredictAll(s Strategy, recs []dataset.Record) []metrics.Prediction {
	out := make([]metrics.Prediction, len(recs))
	_ = mathx.ForEach(len(recs), runtime.GOMAXPROCS(0), func(i int) error { // fn never fails
		out[i] = s.Predict(recs[i])
		return nil
	})
	return out
}
