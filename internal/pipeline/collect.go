package pipeline

import (
	"fmt"

	"eventhit/internal/cicache"
	"eventhit/internal/dataset"
	"eventhit/internal/metrics"
	"eventhit/internal/video"
)

// Collect mode: the same marshalling loop as RunDetailed, but the relay
// stage is captured instead of served. A stream participating in a fleet
// does not own the CI channel — it submits relay requests to a shared
// scheduler (internal/fleet) and keeps marshalling; the scheduler decides
// when (and whether) each request reaches the backend. Because relay
// outcomes never feed back into the predictor, the captured timeline is a
// pure function of the stream: the fleet can replay, reorder and batch it
// without changing what the stream would have predicted.

// RelayRequest is one captured relay decision: which frames of which event
// the stream wants the CI to analyse, when the request was released on the
// stream's local clock, and how urgent it is.
type RelayRequest struct {
	// Seq numbers the stream's requests in release order (0-based).
	Seq int
	// Horizon indexes the timeline's Records/Preds slices; Event is the
	// event slot k within the task.
	Horizon int
	Event   int
	// EventType is the stream event type to detect (Source.Events()[Event]).
	EventType int
	// Win is the absolute frame range to relay.
	Win video.Interval
	// SlackFrames is the conformal urgency: the predicted occurrence
	// interval's start offset from the anchor — how many frames remain
	// before the event is predicted to begin. Smaller slack means the relay
	// must reach the CI sooner to be worth anything.
	SlackFrames int
	// ReleaseMS is the stream-local simulated time at which the request was
	// submitted (scan and predict time of all horizons up to and including
	// this one).
	ReleaseMS float64
	// Key is the content-addressed cache signature of the request (the
	// quantized covariate window plus the event and the relative range),
	// populated only when the stream's Costs.Cache is set; Keyed says so. A
	// scheduler serving keyed requests may dedup them through a shared
	// cicache.Cache.
	Key   cicache.Key
	Keyed bool
}

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

// costedPredictor is a strategy that knows what each of its predictions
// cost (cascade.Cascade: the rungs that ran); step charges that in place of
// the flat Costs.PredictMS.
type costedPredictor interface {
	PredictCosted(rec dataset.Record) (metrics.Prediction, float64)
}

// step is the one marshalling step both modes share: build the record
// anchored at t, predict, charge the scan and predict stages (flat
// Costs.PredictMS, or the strategy's own per-prediction cost when it
// reports one) into tl, and append one relay request per predicted event,
// keyed when Costs.Cache is set. It returns the requests this horizon
// released (a suffix of tl.Requests) and the horizon's scan+predict time.
// What happens to the requests is the caller's business: RunDetailed serves
// them through the resilient client, Collect leaves them captured in tl.
func (m *Marshaller) step(t int, tl *Timeline) ([]RelayRequest, float64, error) {
	rec, err := dataset.BuildRecord(m.ex, t, m.cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("pipeline: anchor %d: %w", t, err)
	}
	var pred metrics.Prediction
	predictMS := m.costs.PredictMS
	if cp, ok := m.strat.(costedPredictor); ok {
		pred, predictMS = cp.PredictCosted(rec)
	} else {
		pred = m.strat.Predict(rec)
	}
	scanMS := float64(m.costs.Scan.FramesPerHorizon) * m.costs.Scan.PerFrameMS
	tl.Horizons++
	tl.ScanMS += scanMS
	tl.PredMS += predictMS
	m.scanH.Observe(scanMS)
	m.predictH.Observe(predictMS)
	first := len(tl.Requests)
	for k, occ := range pred.Occur {
		if !occ {
			continue
		}
		req := RelayRequest{
			Seq:         len(tl.Requests),
			Horizon:     len(tl.Records),
			Event:       k,
			EventType:   m.ex.Events()[k],
			Win:         video.Interval{Start: t + pred.OI[k].Start, End: t + pred.OI[k].End},
			SlackFrames: pred.OI[k].Start,
			ReleaseMS:   tl.ScanMS + tl.PredMS,
		}
		if m.costs.Cache != nil {
			req.Key = cicache.SignWindow(rec.X, m.ex.Events(), req.EventType, pred.OI[k], m.costs.Cache.Epsilon)
			req.Keyed = true
		}
		tl.Requests = append(tl.Requests, req)
	}
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
