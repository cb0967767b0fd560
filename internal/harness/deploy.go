package harness

import (
	"eventhit/internal/cloud"
	"eventhit/internal/fleet"
	"eventhit/internal/pipeline"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

// A trained Env deployed: as a camera on a fresh stream (the fleet, cache
// and transfer experiments) or marshalling its own stream's held-out region
// against a CI (Figures 9 and 10, the resilience sweep).

// opLevel is the operating point of every experiment that fixes one: EHCR
// at c = alpha = 0.9.
const opLevel = 0.9

// ehcr90 is e's bundle deciding at the operating point.
func (e *Env) ehcr90() strategy.Strategy { return e.Bundle.EHCR(opLevel, opLevel) }

// camera deploys e's bundle on the stationary stream seed names, seen
// through e's detector, marshalling its first `frames` frames (0 = all).
// Build cameras afresh for every run: a used one carries warmed caches.
func (e *Env) camera(id string, seed int64, frames int) (fleet.Stream, error) {
	return fleet.NewCamera(id, seed, e.Task.Dataset, e.Task.EventIdx,
		video.PoissonArrivals, 0, 1, e.Opt.Detector, e.Opt.Detector, 0,
		frames, e.ehcr90(), e.Cfg)
}

// ci returns a fresh Rekognition-priced CI over e's stream.
func (e *Env) ci() *cloud.Service {
	return cloud.NewService(e.Stream, cloud.RekognitionPricing(), cloud.DefaultLatency())
}

// marshal runs strategy s at the given stage costs against backend over e's
// test region and scores it.
func (e *Env) marshal(s strategy.Strategy, costs pipeline.Costs, backend cloud.Backend) (pipeline.Scored, error) {
	start, end := testRegion(e)
	return pipeline.RunScored(e.Ex, s, backend, e.Cfg, costs, start, end)
}

// testRegion returns the stream frame range of the test split, so pipeline
// runs score out-of-sample.
func testRegion(env *Env) (start, end int) {
	start = env.Splits.Test[0].Frame
	end = env.Stream.N - 1
	for _, r := range env.Splits.Test {
		if r.Frame < start {
			start = r.Frame
		}
	}
	return start, end
}
