package pipeline

import (
	"fmt"
	"runtime"

	"eventhit/internal/dataset"
	"eventhit/internal/mathx"
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

// decide is the decide stage both modes share: it builds the record
// anchored at every horizon start in [start, end] and decides it, on
// runtime.GOMAXPROCS(0) workers (dataset.Source.Covariates and
// strategy.Strategy.Predict are safe for concurrent use, and a relay's
// outcome never reaches a decision), each record and prediction at its
// horizon's index. A failing anchor fails the stage with the lowest failing
// anchor's error.
func (m *Marshaller) decide(start, end int) ([]dataset.Record, []metrics.Prediction, error) {
	n := 0
	if end-start >= m.cfg.Horizon {
		n = (end - start) / m.cfg.Horizon
	}
	recs := make([]dataset.Record, n)
	preds := make([]metrics.Prediction, n)
	err := mathx.ForEach(n, runtime.GOMAXPROCS(0), func(i int) error {
		t := start + i*m.cfg.Horizon
		rec, err := dataset.BuildRecord(m.ex, t, m.cfg)
		if err != nil {
			return fmt.Errorf("pipeline: anchor %d: %w", t, err)
		}
		recs[i], preds[i] = rec, m.strat.Predict(rec)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return recs, preds, nil
}

// account is the rest of the marshalling step both modes share, taken for
// the decided horizons in order: it charges horizon i's scan and predict
// stages (the flat Costs.PredictMS) into tl and appends one relay request
// per predicted event, keyed when Costs.Cache is set. It returns the
// requests this horizon released (a suffix of tl.Requests) and the
// horizon's scan+predict time. What happens to the requests is the
// caller's business: RunDetailed serves them through the resilient client,
// Collect leaves them captured in tl.
func (m *Marshaller) account(tl *Timeline, i int) ([]RelayRequest, float64) {
	predictMS := m.costs.PredictMS
	scanMS := float64(m.costs.Scan.FramesPerHorizon) * m.costs.Scan.PerFrameMS
	tl.Horizons++
	tl.ScanMS += scanMS
	tl.PredMS += predictMS
	first := len(tl.Requests)
	tl.Requests = m.relay.AppendRequests(tl.Requests, tl.Records[i], m.ex.Events(), &tl.Preds[i], i, tl.ScanMS+tl.PredMS)
	return tl.Requests[first:], scanMS + predictMS
}

// Collect runs the marshalling loop over [start, end] and captures the
// relay requests instead of serving them. The stage accounting (scan,
// predict, the local clock) is RunDetailed's — both go through decide and
// account; no CI call is made, nothing is billed, and the Marshaller's
// resilient client is untouched.
func (m *Marshaller) Collect(start, end int) (Timeline, error) {
	start, end = m.clamp(start, end)
	recs, preds, err := m.decide(start, end)
	if err != nil {
		return Timeline{}, err
	}
	tl := Timeline{Records: recs, Preds: preds}
	for i := range recs {
		m.account(&tl, i)
	}
	tl.Frames = tl.Horizons * m.cfg.Horizon
	return tl, nil
}
