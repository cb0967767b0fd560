package pipeline

import (
	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/dataset"
	"eventhit/internal/metrics"
	"eventhit/internal/resilience"
	"eventhit/internal/video"
)

// RelayRequest is one decided relay: which frames of which event the stream
// wants the CI to analyse, when the request was released on the stream's
// local clock, and how urgent it is.
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
	// exact covariate window plus the event and the relative range),
	// populated only when the relay has a result cache (offline: the
	// stream's Costs.Cache is set); Keyed says so. A scheduler serving keyed
	// requests may dedup them through a shared cicache.Cache.
	Key   cicache.Key
	Keyed bool
}

// RelayOutcome records the fate of one relayed (horizon, event) decision.
type RelayOutcome struct {
	// Horizon indexes the returned records/predictions slices.
	Horizon int
	// Event is the event slot k within the task.
	Event int
	// Deferred reports that the relay never reached the CI (graceful
	// degradation). Retried reports a success that needed retries.
	Deferred bool
	Retried  bool
	// Detections is how many true event segments the CI returned.
	Detections int
}

// Relay is the relay half of the marshalling step: the priced CI channel a
// decided relay is sent through, shared by the offline Marshaller and the
// online server. It holds the one layering policy both drivers rely on: the
// optional result cache sits BELOW the resilient client, so a hit is an
// instantly successful zero-latency attempt (no billing, no busy time, the
// breaker sees a success) and a miss retries like any other request; a
// request the client cannot serve comes back Deferred.
type Relay struct {
	client *resilience.Client
	// cached is the dedup layer the client calls through (nil without a
	// cache).
	cached *cloud.CachedBackend
}

// NewRelay assembles the CI channel over ci: cache, when non-nil, is
// interposed as a cloud.CachedBackend whose savings are priced at
// perFrameUSD, and the resilient client runs cfg on clock (nil: a private
// clock).
func NewRelay(ci cloud.Backend, cache cicache.Remote, perFrameUSD float64, cfg resilience.Config, clock *resilience.Clock) *Relay {
	r := &Relay{}
	backend := ci
	if cache != nil {
		r.cached = cloud.NewCachedBackend(ci, cache, perFrameUSD)
		backend = r.cached
	}
	r.client = resilience.NewClient(backend, cfg, clock)
	return r
}

// Client is the resilient client, for its meters and breaker state.
func (r *Relay) Client() *resilience.Client { return r.client }

// Cached is the result-cache layer, nil when the relay has none (a nil
// Relay has none).
func (r *Relay) Cached() *cloud.CachedBackend {
	if r == nil {
		return nil
	}
	return r.cached
}

// AppendRequests appends one request per event pred decided to relay, in
// event order: the absolute window anchored at rec.Frame, the stream event
// type (events[k]), the slack, and — when the relay has a cache — the
// content signature of rec.X. horizon and releaseMS stamp the requests for
// a captured timeline. A nil Relay appends unkeyed requests.
func (r *Relay) AppendRequests(dst []RelayRequest, rec dataset.Record, events []int, pred *metrics.Prediction, horizon int, releaseMS float64) []RelayRequest {
	// The window is hashed once, for the first event relayed.
	var sig cicache.Decision
	signed := false
	for k, occ := range pred.Occur {
		if !occ {
			continue
		}
		rel := pred.OI[k]
		req := RelayRequest{
			Seq:         len(dst),
			Horizon:     horizon,
			Event:       k,
			EventType:   events[k],
			Win:         video.Interval{Start: rec.Frame + rel.Start, End: rec.Frame + rel.End},
			SlackFrames: rel.Start,
			ReleaseMS:   releaseMS,
		}
		if r.Cached() != nil {
			if !signed {
				sig, signed = cicache.SignDecision(rec.X, events), true
			}
			req.Key = sig.Key(req.EventType, rel)
			req.Keyed = true
		}
		dst = append(dst, req)
	}
	return dst
}

// Serve sends rq through the resilient client — the keyed (content-
// addressed) branch if and only if rq is keyed — and returns its outcome.
// The simulated CI time the call consumed lands in the client's
// Stats().BusyMS. A request the client could not serve (breaker open,
// retries exhausted) is Deferred and err says why; its failed attempts are
// still charged to BusyMS.
func (r *Relay) Serve(rq RelayRequest) (out RelayOutcome, err error) {
	var res resilience.Result
	if rq.Keyed {
		res, err = r.client.DetectKeyed(rq.Key, rq.EventType, rq.Win)
	} else {
		res, err = r.client.Detect(rq.EventType, rq.Win)
	}
	// A deferred Result carries no detection.
	out = RelayOutcome{Horizon: rq.Horizon, Event: rq.Event, Deferred: res.Deferred, Retried: res.Retried,
		Detections: len(res.Det.Found)}
	return out, err
}
