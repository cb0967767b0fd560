package harness

import (
	"eventhit/internal/cloud"
	"eventhit/internal/pipeline"
	"eventhit/internal/strategy"
)

// A trained Env deployed: marshalling its own stream's held-out region
// against a CI (Figures 9 and 10).

// opLevel is the operating point of every experiment that fixes one: EHCR
// at c = alpha = 0.9.
const opLevel = 0.9

// ehcr90 is e's bundle deciding at the operating point.
func (e *Env) ehcr90() strategy.Strategy { return e.Bundle.EHCR(opLevel, opLevel) }

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
