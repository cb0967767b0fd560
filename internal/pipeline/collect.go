package pipeline

import (
	"fmt"

	"eventhit/internal/dataset"
	"eventhit/internal/metrics"
)

// Collect mode: the same marshalling loop as RunDetailed, but the relay
// stage is captured instead of served. A stream participating in a fleet
// does not own the CI channel — it submits relay requests to a shared
// scheduler (internal/fleet) and keeps marshalling; the scheduler decides
// when (and whether) each request reaches the backend. Because relay
// outcomes never feed back into the predictor, the captured timeline is a
// pure function of the stream: the fleet can replay, reorder and batch it
// without changing what the stream would have predicted.

// Timeline is one stream's captured marshalling activity over a region.
type Timeline struct {
	Requests []RelayRequest
	Records  []dataset.Record
	Preds    []metrics.Prediction
	// Horizons is the number of prediction steps; Frames the stream frames
	// covered; LocalMS the total scan+predict time (CI time is owned by the
	// scheduler that serves the requests).
	Horizons int
	Frames   int
	ScanMS   float64
	PredMS   float64
}

// LocalMS returns the stream-local processing time (scan + predict).
func (tl Timeline) LocalMS() float64 { return tl.ScanMS + tl.PredMS }

// clamp narrows [start, end] to the anchors the stream can serve: a full
// collection window before the first, the last frame after the last.
func (m *Marshaller) clamp(start, end int) (int, int) {
	if start < m.cfg.Window-1 {
		start = m.cfg.Window - 1
	}
	if end > m.ex.Stream().N-1 {
		end = m.ex.Stream().N - 1
	}
	return start, end
}

// step is the one marshalling step both modes share: build the record
// anchored at t, predict, charge the scan and predict stages (the flat
// Costs.PredictMS) into tl, and append one relay request per predicted
// event, keyed when Costs.Cache is set. It returns the requests this horizon
// released (a suffix of tl.Requests) and the horizon's scan+predict time.
// What happens to the requests is the caller's business: RunDetailed serves
// them through the resilient client, Collect leaves them captured in tl.
func (m *Marshaller) step(t int, tl *Timeline) ([]RelayRequest, float64, error) {
	rec, err := dataset.BuildRecord(m.ex, t, m.cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("pipeline: anchor %d: %w", t, err)
	}
	pred := m.strat.Predict(rec)
	predictMS := m.costs.PredictMS
	scanMS := float64(m.costs.Scan.FramesPerHorizon) * m.costs.Scan.PerFrameMS
	tl.Horizons++
	tl.ScanMS += scanMS
	tl.PredMS += predictMS
	m.scanH.Observe(scanMS)
	m.predictH.Observe(predictMS)
	first := len(tl.Requests)
	tl.Requests = m.relay.AppendRequests(tl.Requests, rec, m.ex.Events(), &pred, len(tl.Records), tl.ScanMS+tl.PredMS)
	tl.Records = append(tl.Records, rec)
	tl.Preds = append(tl.Preds, pred)
	return tl.Requests[first:], scanMS + predictMS, nil
}

// Collect runs the marshalling loop over [start, end] and captures the
// relay requests instead of serving them. The stage accounting (scan,
// predict, the local clock) is RunDetailed's — both go through step; no CI
// call is made, nothing is billed, and the Marshaller's resilient client
// is untouched.
func (m *Marshaller) Collect(start, end int) (Timeline, error) {
	start, end = m.clamp(start, end)
	var tl Timeline
	for t := start; t+m.cfg.Horizon <= end; t += m.cfg.Horizon {
		if _, _, err := m.step(t, &tl); err != nil {
			return Timeline{}, err
		}
	}
	tl.Frames = tl.Horizons * m.cfg.Horizon
	m.horizonsC.Add(float64(tl.Horizons))
	return tl, nil
}
