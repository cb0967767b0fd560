package fleet

import (
	"fmt"

	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/mathx"
	"eventhit/internal/pipeline"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

// NewCamera builds the Stream of one synthetic camera, the way every fleet
// experiment and scenario does. Its scene is the stream seed names: spec's
// events arriving by proc, from frame surgeAt on surgeRate times as often
// (surgeAt 0: stationary). It sees the task's events through the detector
// det, which degrades to after at frame driftAt (driftAt 0: never); seed
// also keys the detector noise, so cameras sharing a seed produce identical
// covariates. It marshals frames [0, frames] — the whole stream when frames
// is 0 or beyond it — deciding with s at EventHit's stage costs.
func NewCamera(id string, seed int64, spec video.DatasetSpec, events []int,
	proc video.ArrivalProcess, surgeAt int, surgeRate float64,
	det, after features.DetectorConfig, driftAt int,
	frames int, s strategy.Strategy, cfg dataset.Config) (Stream, error) {
	st := video.GenerateWith(spec, proc, surgeAt, surgeRate, mathx.NewRNG(seed).Split(1))
	var ex *features.Extractor
	var err error
	if driftAt > 0 {
		ex, err = features.NewDriftingExtractor(st, events, det, after, driftAt, seed)
	} else {
		ex, err = features.NewExtractor(st, events, det, seed)
	}
	if err != nil {
		return Stream{}, fmt.Errorf("fleet: camera %s: %w", id, err)
	}
	end := st.N - 1
	if frames > 0 && frames < end {
		end = frames
	}
	return Stream{
		ID: id, Source: ex, Strategy: s, Cfg: cfg,
		Costs: pipeline.EventHitCosts(cfg.Window),
		Start: 0, End: end,
	}, nil
}
