package fleet

import (
	"sort"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/pipeline"
	"eventhit/internal/video"
)

// The scheduler is phase B of a fleet run: a single-goroutine, event-driven
// simulation over the shared clock. Requests arrive at their streams'
// release times; a serial CI channel serves one batch at a time; between
// batches the pending queue is re-prioritized by aged urgency, bounded by
// shedding, and metered by the budgets. Everything here is deterministic:
// the only inputs are the (already slotted) timelines and the config, all
// arithmetic is serial, and every tie is broken by (stream index, seq).

// schedStream is one stream's scheduling state.
type schedStream struct {
	id     string
	svc    *cloud.Service
	tl     pipeline.Timeline
	cursor int // next timeline request to release
	bucket *tokenBucket

	served, deferred, shed int
	detections             int
	waitSumMS, maxWaitMS   float64
	// unserved lists the deferred and shed relays (and bad cache hits) for
	// the realized-recall accounting.
	unserved []pipeline.RelayOutcome
}

func (st *schedStream) markUnserved(r pipeline.RelayRequest) {
	st.unserved = append(st.unserved, pipeline.RelayOutcome{Horizon: r.Horizon, Event: r.Event, Deferred: true})
}

// pendingReq is one queued relay.
type pendingReq struct {
	stream int // index into scheduler.streams
	req    pipeline.RelayRequest
}

type scheduler struct {
	cfg     Config
	streams []*schedStream
	// batchMax, callOverheadMS and framePeriodMS hold the package
	// constants; they are fields so this package's tests can run a serial
	// channel, free calls or static priorities.
	batchMax       int
	callOverheadMS float64
	framePeriodMS  float64

	pending      []pendingReq
	nowMS        float64
	ciFreeMS     float64
	framesBilled int64
	spentUSD     float64 // always float64(framesBilled) * PerFrameUSD
	batches      int
	maxDepth     int

	// cache is the fleet-shared CI result cache (nil when Config.Cache is
	// unset). It is touched only here, on the serial phase-B goroutine, so
	// hit/miss order — and therefore the report — is independent of
	// Parallelism.
	cache            *cicache.Cache
	cacheHits        int64
	cacheSavedFrames int64
	cacheBadHits     int64
}

func newScheduler(cfg Config, cache *cicache.Cache) *scheduler {
	return &scheduler{cfg: cfg, cache: cache,
		batchMax: batchMax, callOverheadMS: callOverheadMS, framePeriodMS: framePeriodMS}
}

func (s *scheduler) addStream(id string, svc *cloud.Service, tl pipeline.Timeline) {
	s.streams = append(s.streams, &schedStream{
		id: id, svc: svc, tl: tl,
		bucket: newTokenBucket(s.cfg.StreamRatePerSec, s.cfg.StreamBurst, 0),
	})
}

// effSlack is the aged urgency of a pending request at nowMS: the nominal
// slack (frames until the predicted occurrence starts) minus the slack
// consumed by waiting. Smaller is more urgent; waiting strictly decreases
// it, which is the starvation-freedom argument — a parked relay's slack
// falls below any fresh arrival's eventually.
func (s *scheduler) effSlack(p pendingReq) float64 {
	return float64(p.req.SlackFrames) - (s.nowMS-p.req.ReleaseMS)/s.framePeriodMS
}

// less orders pending requests by (aged urgency, stream index, seq) — a
// total, deterministic order.
func (s *scheduler) less(a, b pendingReq) bool {
	sa, sb := s.effSlack(a), s.effSlack(b)
	if sa != sb {
		return sa < sb
	}
	if a.stream != b.stream {
		return a.stream < b.stream
	}
	return a.req.Seq < b.req.Seq
}

// nextRelease returns the stream index holding the earliest unreleased
// request, or -1 when all timelines are drained. Ties break on stream
// index.
func (s *scheduler) nextRelease() int {
	best := -1
	var bestMS float64
	for i, st := range s.streams {
		if st.cursor >= len(st.tl.Requests) {
			continue
		}
		t := st.tl.Requests[st.cursor].ReleaseMS
		if best == -1 || t < bestMS {
			best, bestMS = i, t
		}
	}
	return best
}

// admit moves every request released at or before nowMS into the pending
// queue, in (release time, stream index) order, then applies the queue
// bound by shedding the lowest-urgency entries.
func (s *scheduler) admit() {
	for {
		i := s.nextRelease()
		if i < 0 {
			break
		}
		st := s.streams[i]
		r := st.tl.Requests[st.cursor]
		if r.ReleaseMS > s.nowMS {
			break
		}
		st.cursor++
		s.pending = append(s.pending, pendingReq{stream: i, req: r})
	}
	if len(s.pending) > s.maxDepth {
		s.maxDepth = len(s.pending)
	}
	if s.cfg.QueueMax > 0 && len(s.pending) > s.cfg.QueueMax {
		// Shed from the low-urgency end until the bound holds.
		sort.Slice(s.pending, func(a, b int) bool { return s.less(s.pending[a], s.pending[b]) })
		for len(s.pending) > s.cfg.QueueMax {
			victim := s.pending[len(s.pending)-1]
			s.pending = s.pending[:len(s.pending)-1]
			st := s.streams[victim.stream]
			st.shed++
			st.markUnserved(victim.req)
		}
	}
}

// run drains every timeline through the shared channel.
func (s *scheduler) run() {
	for {
		s.admit()
		if len(s.pending) == 0 {
			i := s.nextRelease()
			if i < 0 {
				return // all streams drained
			}
			// Idle until the next release.
			st := s.streams[i]
			s.nowMS = st.tl.Requests[st.cursor].ReleaseMS
			continue
		}
		s.dispatch()
	}
}

// dispatch serves one batch: pick the most urgent pending relay, meter it,
// fill the batch with further compatible relays in urgency order, and
// charge the shared channel for one call. With a shared cache, keyed
// relays are first checked against it — a hit is served immediately,
// unbilled and unmetered — and keyed relays landing in the same batch as
// an identical signature coalesce: one rides billed, its twins ride that
// call's verdict for free.
func (s *scheduler) dispatch() {
	sort.Slice(s.pending, func(a, b int) bool { return s.less(s.pending[a], s.pending[b]) })

	var batch []pendingReq
	var batchFrames int
	var batchKeys map[cicache.Key]int // signature -> batch slot of the billed twin
	var piggy []pendingReq
	var piggySlot []int
	if s.cache != nil {
		batchKeys = make(map[cicache.Key]int)
	}
	rest := s.pending[:0]
	for _, p := range s.pending {
		if s.cache != nil && p.req.Keyed {
			if v, ok := s.cache.Get(p.req.Key, p.req.Win.Start); ok {
				s.serveCached(p, v, s.nowMS)
				continue
			}
			if slot, ok := batchKeys[p.req.Key]; ok {
				// In-batch twin of an already-admitted relay: coalesce. The
				// twin is served from the billed call's verdict below —
				// no frames, no budget, no bucket.
				piggy = append(piggy, p)
				piggySlot = append(piggySlot, slot)
				continue
			}
		}
		if len(batch) >= s.batchMax {
			rest = append(rest, p)
			continue
		}
		frames := p.req.Win.Len()
		if len(batch) > 0 && batchFrames+frames > batchFramesMax {
			rest = append(rest, p)
			continue
		}
		// The cap is checked on the billed frame count with a single
		// multiply: accumulating per-relay costs drifts past the cap by
		// float error.
		wouldSpend := float64(s.framesBilled+int64(batchFrames+frames)) * cloud.RekognitionPricing().PerFrameUSD
		if s.cfg.GlobalBudgetUSD > 0 && wouldSpend > s.cfg.GlobalBudgetUSD {
			// Over the cap: the relay can never be afforded (spend only
			// grows), so defer it now rather than re-sorting it forever.
			s.defer_(p)
			continue
		}
		if !s.streams[p.stream].bucket.take(float64(frames), s.nowMS) {
			// The stream is over its metered rate. Deferring (rather than
			// parking) keeps the queue from filling with unaffordable work;
			// the stream's next horizon gets a refilled bucket.
			s.defer_(p)
			continue
		}
		if s.cache != nil && p.req.Keyed {
			// Registered only once the relay survived every meter, so a
			// twin never coalesces onto a deferred request.
			batchKeys[p.req.Key] = len(batch)
		}
		batchFrames += frames
		batch = append(batch, p)
	}
	s.pending = rest
	if len(batch) == 0 {
		return // everything was deferred or cache-served; admit/idle again
	}

	serveStart := s.nowMS
	latency := s.callOverheadMS + float64(batchFrames)*cloud.DefaultLatency().PerFrameMS
	s.framesBilled += int64(batchFrames)
	s.spentUSD = float64(s.framesBilled) * cloud.RekognitionPricing().PerFrameUSD
	s.batches++
	dets := make([][]video.Interval, len(batch))
	for bi, p := range batch {
		st := s.streams[p.stream]
		det, err := st.svc.Detect(p.req.EventType, p.req.Win)
		if err != nil {
			// The oracle backend cannot fail on a valid event type; a
			// failure here is a programming error surfaced loudly.
			panic("fleet: oracle CI failed: " + err.Error())
		}
		dets[bi] = det.Found
		if s.cache != nil && p.req.Keyed {
			s.cache.Put(p.req.Key, cicache.Relativize(det.Found, p.req.Win), p.req.Win.Start)
		}
		st.served++
		st.detections += len(det.Found)
		wait := serveStart - p.req.ReleaseMS
		st.waitSumMS += wait
		if wait > st.maxWaitMS {
			st.maxWaitMS = wait
		}
	}
	for i, p := range piggy {
		twin := batch[piggySlot[i]]
		s.serveCached(p, cicache.Relativize(dets[piggySlot[i]], twin.req.Win), serveStart)
	}
	s.ciFreeMS = serveStart + latency
	s.nowMS = s.ciFreeMS
}

// serveCached serves a relay from a stored (or coalesced) verdict: the
// relative intervals are re-anchored onto the relay's own window, the relay
// counts as served with zero billed frames and zero channel time, and the
// savings meters advance. A hit that claims "no occurrence" while the
// oracle would have found one is a bad hit: the relay stays served (the
// partition Served+Deferred+Shed == Relays holds) but is excluded from the
// realized-recall credit, because the operator in fact missed the event.
func (s *scheduler) serveCached(p pendingReq, v cicache.Verdict, serveStart float64) {
	st := s.streams[p.stream]
	found := v.Materialize(p.req.Win)
	st.served++
	st.detections += len(found)
	wait := serveStart - p.req.ReleaseMS
	st.waitSumMS += wait
	if wait > st.maxWaitMS {
		st.maxWaitMS = wait
	}
	s.cacheHits++
	s.cacheSavedFrames += int64(p.req.Win.Len())
	if len(found) == 0 && len(st.svc.Peek(p.req.EventType, p.req.Win)) > 0 {
		s.cacheBadHits++
		st.markUnserved(p.req)
	}
}

// defer_ drops a relay to budget metering: unserved, unbilled, recorded.
func (s *scheduler) defer_(p pendingReq) {
	st := s.streams[p.stream]
	st.deferred++
	st.markUnserved(p.req)
}
