package serve

import (
	"net/http"
	"net/url"
	"strconv"

	"eventhit/internal/dataset"
	"eventhit/internal/fleet"
	"eventhit/internal/metrics"
	"eventhit/internal/pipeline"
	"eventhit/internal/strategy"
	"eventhit/internal/trace"
	"eventhit/internal/video"
)

// Decision is one event's marshalling verdict.
type Decision struct {
	Event string `json:"event"`
	Relay bool   `json:"relay"`
	// Start and End are absolute frame indices of the range to relay
	// (inclusive); zero when Relay is false.
	Start int `json:"start,omitempty"`
	End   int `json:"end,omitempty"`
	// Deferred reports that the relay did not reach the cloud: either the
	// fleet arbiter declined admission (rate or budget), or the server-side
	// CI relay could not be served (circuit open, retries exhausted). The
	// decision stands but no frames were sent or charged.
	Deferred bool `json:"deferred,omitempty"`
	// Detections is the number of true event segments the CI returned for
	// a served relay. Only set when the server owns the relay.
	Detections int `json:"detections,omitempty"`
}

// PredictResponse is the POST /v1/predict body.
type PredictResponse struct {
	// Anchor is the absolute index of the last buffered frame (T_i).
	Anchor int `json:"anchor"`
	// HorizonEnd is Anchor + H.
	HorizonEnd int        `json:"horizonEnd"`
	Decisions  []Decision `json:"decisions"`
}

func (s *Server) handlePredict(sess *session, w http.ResponseWriter, r *http.Request) {
	sc := s.scratch.Get().(*predictScratch)
	defer s.scratch.Put(sc)
	if !s.predictCore(sess, w, r, sc) {
		return // predictCore already wrote the error
	}
	sc.out = appendPredictResponse(sc.out[:0], &sc.resp, s.eventJSON)
	w.Header()["Content-Type"] = jsonContentType
	w.Write(sc.out)
}

// predictKnob reads one (0,1] knob from the query. Validation uses the
// positive form !(f > 0 && f <= 1): NaN fails every comparison, so
// "confidence=NaN" (which ParseFloat accepts) is rejected rather than
// slipping through a `f <= 0 || f > 1` check.
func predictKnob(w http.ResponseWriter, q url.Values, name string, def float64) (float64, bool) {
	v := q.Get(name)
	if v == "" {
		return def, true
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || !(f > 0 && f <= 1) {
		httpError(w, http.StatusBadRequest, "invalid %s %q", name, v)
		return 0, false
	}
	return f, true
}

// predictCore runs one predict request end to end on sc and commits its
// counters, leaving the response in sc.resp. It returns false when an HTTP
// error was already written.
func (s *Server) predictCore(sess *session, w http.ResponseWriter, r *http.Request, sc *predictScratch) bool {
	conf, cov := s.cfg.DefaultConfidence, s.cfg.DefaultCoverage
	if r.URL.RawQuery != "" {
		q := r.URL.Query()
		var ok bool
		if conf, ok = predictKnob(w, q, "confidence", conf); !ok {
			return false
		}
		if cov, ok = predictKnob(w, q, "coverage", cov); !ok {
			return false
		}
	}
	s.mu.Lock()
	if n := sess.ring.n; n < s.window {
		s.mu.Unlock()
		httpError(w, http.StatusConflict, "window not full: %d of %d frames buffered", n, s.window)
		return false
	}
	// The ring is written in place, so the window must be copied out before
	// mu is released; everything below reads the private copy.
	sess.ring.copyTo(sc.flat)
	anchor := sess.next - 1
	s.mu.Unlock()

	// Resolve the serving unit exactly once: everything below — inference,
	// relay labeling, recalibration — sees one consistent model+calibration
	// pair even if a swap lands mid-request.
	u := sess.unit.Load()
	// Inference holds no server lock: it reads the unit and writes sc and
	// the session's decision scratch, told which stream frame the window
	// ends at. The raw existence scores feed the adaptation loop below.
	rec := dataset.Record{X: sc.x, Frame: anchor}
	sess.decide(u, rec, conf, cov, sc)
	pred := &sc.pred
	reqs := s.relay.AppendRequests(sc.reqs[:0], rec, s.eventSet, pred, 0, 0)
	sc.reqs = reqs
	// Hold relayMu across the relays and the snapshot commit below, so the
	// committed CI view always corresponds to the committed counters (see
	// the relayMu field doc).
	s.lockRelay()
	defer s.unlockRelay()
	resp := &sc.resp
	resp.Anchor, resp.HorizonEnd, resp.Decisions = anchor, anchor+s.horizon, resp.Decisions[:0]
	c := counts{predicts: 1}
	// Ground truth recovered for this horizon, per event: relayed horizons
	// are labeled by the CI verdict itself; skipped ones by audit relays.
	labelKnown, labelTrue := sc.labelKnown, sc.labelTrue
	clear(labelKnown)
	clear(labelTrue)
	for k := 0; k < s.k; k++ {
		d := Decision{Event: s.cfg.EventNames[k]}
		if pred.Occur[k] {
			rq := reqs[0]
			reqs = reqs[1:]
			d.Relay, d.Start, d.End = true, rq.Win.Start, rq.Win.End
			c.relays++
			// A relay the cache can already answer is free, so neither the
			// token bucket nor the global budget should see it (matching the
			// fleet scheduler, which consults the cache before its meters).
			// No TOCTOU: the relay path is serialized under relayMu, so the
			// entry cannot be evicted between this check and the keyed relay.
			free := rq.Keyed && s.relay.Cached().Cache().Contains(rq.Key, rq.Win.Start)
			if s.arbiter != nil && !free && s.arbiter.Admit(sess.id, rq.Win.Len()) != fleet.Admit {
				// The arbiter meters decided relays whether the server or the
				// caller ships the frames: a declined relay is deferred and
				// its frames never count against EstimatedUSD's "to cloud"
				// tally.
				d.Deferred = true
				c.admitDef++
			} else {
				if !free {
					c.frames += int64(rq.Win.Len())
				}
				if s.relay != nil {
					// Graceful degradation: the decision is served to the
					// caller either way; an unserved relay is deferred.
					if out, _ := s.relay.Serve(rq); out.Deferred {
						d.Deferred = true
						c.deferred++
					} else {
						d.Detections = out.Detections
						c.relayedOK++
						// A served relay is a free ground-truth label: the CI
						// just told us whether the event really occurred here.
						labelKnown[k], labelTrue[k] = true, out.Detections > 0
					}
				}
			}
		} else {
			c.skipped++
			if sess.ad != nil && sess.ad.Audit() {
				// An audit relays the full horizon purely to label the skip;
				// it bypasses the fleet arbiter and the decided-relay tally.
				hz := video.Interval{Start: anchor + 1, End: anchor + s.horizon}
				if out, _ := s.relay.Serve(pipeline.RelayRequest{EventType: s.eventSet[k], Win: hz}); !out.Deferred {
					labelKnown[k], labelTrue[k] = true, out.Detections > 0
				}
			}
		}
		resp.Decisions = append(resp.Decisions, d)
	}
	// Still under relayMu: a recalibration swaps only this session's unit
	// (drift is per camera). WithClassifier cannot fail on one cut for s.k.
	if sess.ad != nil {
		if cls := sess.ad.Observe(sc.scores, pred.Occur, labelKnown, labelTrue); cls != nil {
			if nb, err := u.bundle.WithClassifier(cls); err == nil {
				sess.unit.Store(s.derive(u, nb, swapOriginRecalibration))
			}
		}
	}
	s.mu.Lock()
	sess.add(c)
	if sess.ad != nil {
		sess.adapt = sess.ad.Stats()
	}
	if s.relay != nil {
		s.relaySnap = relaySnapshot{
			stats:   s.relay.Client().Stats(),
			usage:   s.cfg.CI.Usage(),
			breaker: s.relay.Client().BreakerState(),
		}
	}
	s.mu.Unlock()
	if s.cfg.Trace != nil {
		// After the commit: a failing trace writer costs the request its
		// response, never the counters of relays already admitted and billed.
		for k, d := range resp.Decisions {
			if err := s.cfg.Trace.Append(trace.Entry{
				Anchor: anchor, Horizon: s.horizon,
				Event: d.Event, EventIndex: k,
				Relay: d.Relay, Start: d.Start, End: d.End,
				Confidence: conf, Coverage: cov,
			}); err != nil {
				httpError(w, http.StatusInternalServerError, "trace append: %v", err)
				return false
			}
		}
	}
	return true
}

// decide runs u's decision for rec on the session's scratch, leaving the
// prediction and a copy of the raw scores in sc.
func (sess *session) decide(u *bundleUnit, rec dataset.Record, conf, cov float64, sc *predictScratch) {
	sess.decMu.Lock()
	defer sess.decMu.Unlock()
	if sess.dec == nil {
		sess.dec = new(strategy.Scratch)
	}
	copy(sc.scores, u.decide(rec, conf, cov, sess.dec, &sc.pred))
}

// predictScratch is the per-request working set of a predict: the window
// copied out of the session ring (x's rows are fixed views into flat, so a
// copy into flat is all a request pays), the per-event label slices, the
// decision with the raw scores copied out of the session's decision scratch
// (which stays with the session: see session.dec), its relay requests, and
// the response with its encoding.
type predictScratch struct {
	flat                  []float64
	x                     [][]float64
	labelKnown, labelTrue []bool
	scores                []float64
	pred                  metrics.Prediction
	reqs                  []pipeline.RelayRequest
	resp                  PredictResponse
	out                   []byte
}

func newPredictScratch(window, d, k int) *predictScratch {
	sc := &predictScratch{
		flat:       make([]float64, window*d),
		x:          make([][]float64, window),
		labelKnown: make([]bool, k),
		labelTrue:  make([]bool, k),
		scores:     make([]float64, k),
		reqs:       make([]pipeline.RelayRequest, 0, k),
		resp:       PredictResponse{Decisions: make([]Decision, 0, k)},
	}
	for i := range sc.x {
		sc.x[i] = sc.flat[i*d : (i+1)*d : (i+1)*d]
	}
	return sc
}

// appendPredictResponse appends resp to dst byte for byte as
// json.NewEncoder(w).Encode(resp) writes it — field order, the omitempty
// rules of Decision and the trailing newline included — without reflection
// or allocation. names[k] is Decisions[k].Event already encoded as a JSON
// string (Server.eventJSON).
func appendPredictResponse(dst []byte, resp *PredictResponse, names [][]byte) []byte {
	dst = append(dst, `{"anchor":`...)
	dst = strconv.AppendInt(dst, int64(resp.Anchor), 10)
	dst = append(dst, `,"horizonEnd":`...)
	dst = strconv.AppendInt(dst, int64(resp.HorizonEnd), 10)
	if resp.Decisions == nil {
		return append(dst, `,"decisions":null}`+"\n"...)
	}
	dst = append(dst, `,"decisions":[`...)
	for k := range resp.Decisions {
		d := &resp.Decisions[k]
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"event":`...)
		dst = append(dst, names[k]...)
		dst = append(dst, `,"relay":`...)
		dst = strconv.AppendBool(dst, d.Relay)
		if d.Start != 0 {
			dst = append(dst, `,"start":`...)
			dst = strconv.AppendInt(dst, int64(d.Start), 10)
		}
		if d.End != 0 {
			dst = append(dst, `,"end":`...)
			dst = strconv.AppendInt(dst, int64(d.End), 10)
		}
		if d.Deferred {
			dst = append(dst, `,"deferred":true`...)
		}
		if d.Detections != 0 {
			dst = append(dst, `,"detections":`...)
			dst = strconv.AppendInt(dst, int64(d.Detections), 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}
