package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/mathx"
	"eventhit/internal/pipeline"
	"eventhit/internal/video"
)

// TestFleetCacheZeroEpsilonParity pins the fleet-level safety contract:
// over streams with distinct seeds (no exact covariate repeats) the shared
// cache at Epsilon 0 hits never, and the report's JSON bytes are identical
// to the uncached run's at any Parallelism.
func TestFleetCacheZeroEpsilonParity(t *testing.T) {
	run := func(par int, withCache bool) []byte {
		streams := testStreams(t, 3, 30_000)
		cfg := DefaultConfig()
		cfg.Parallelism = par
		cfg.StreamRatePerSec = 400
		cfg.StreamBurst = 2000
		cfg.GlobalBudgetUSD = 10
		if withCache {
			c := cicache.DefaultConfig()
			cfg.Cache = &c
		}
		rep, err := Run(streams, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if withCache && rep.CacheHits != 0 {
			t.Fatalf("exact-match cache hit across distinct streams: %d", rep.CacheHits)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	offJSON := run(1, false)
	for _, par := range []int{1, 4} {
		if onJSON := run(par, true); !bytes.Equal(offJSON, onJSON) {
			t.Fatalf("cache at eps=0 changed the report (par=%d):\noff: %s\non:  %s", par, offJSON, onJSON)
		}
	}
}

// TestFleetCacheDedupsTwinStreams: two cameras watching the same scene
// (identical seeds, hence identical covariate timelines) submit identical
// relays. With the shared cache at Epsilon 0 one twin rides the other's
// billed call — half the fleet's frames become unbilled savings while
// realized recall is untouched.
func TestFleetCacheDedupsTwinStreams(t *testing.T) {
	build := func() []Stream {
		return []Stream{
			testStream(t, "cam-a", 7, 30_000),
			testStream(t, "cam-b", 7, 30_000),
		}
	}
	cfg := DefaultConfig()
	cfg.QueueMax = 0
	off, err := Run(build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := cicache.DefaultConfig()
	cfg.Cache = &c
	on, err := Run(build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if on.CacheHits == 0 || on.CacheSavedFrames == 0 || on.CacheSavedUSD <= 0 {
		t.Fatalf("twin streams produced no savings: %+v", on)
	}
	// Every frame the cache saved is a frame the uncached run billed.
	if on.TotalFrames+on.CacheSavedFrames != off.TotalFrames {
		t.Fatalf("frames don't partition: billed %d + saved %d != uncached %d",
			on.TotalFrames, on.CacheSavedFrames, off.TotalFrames)
	}
	if on.CacheBadHits != 0 {
		t.Fatalf("exact-match twins produced %d bad hits", on.CacheBadHits)
	}
	for i, s := range on.Streams {
		if s.Served != s.Relays || s.Deferred != 0 || s.Shed != 0 {
			t.Fatalf("stream %s not fully served: %+v", s.ID, s)
		}
		if s.RealizedREC != off.Streams[i].RealizedREC {
			t.Fatalf("stream %s realized REC moved: %v vs %v", s.ID, s.RealizedREC, off.Streams[i].RealizedREC)
		}
	}
}

// TestFleetCacheCoalescingBypassesBatchCap: twins released simultaneously
// always land in the same dispatch round, so they dedup by in-batch
// coalescing — even at a batch cap of 1, where the twin rides as an unbilled
// passenger rather than occupying a batch slot. One camera pays, the other
// pays nothing.
func TestFleetCacheCoalescingBypassesBatchCap(t *testing.T) {
	a := testStream(t, "cam-a", 9, 30_000)
	b := testStream(t, "cam-b", 9, 30_000)
	cfg := DefaultConfig()
	cfg.QueueMax = 0
	c := cicache.DefaultConfig()
	cfg.Cache = &c
	cache, err := cicache.New(c)
	if err != nil {
		t.Fatal(err)
	}
	sch := newScheduler(cfg, cache)
	sch.batchMax = 1
	rep, err := drive(sch, []Stream{a, b}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != int64(rep.Streams[1].Relays) {
		t.Fatalf("every cam-b relay should coalesce: hits=%d relays=%d", rep.CacheHits, rep.Streams[1].Relays)
	}
	if rep.Streams[0].Frames == 0 || rep.Streams[1].Frames != 0 {
		t.Fatalf("billing not deduped: a=%d b=%d frames", rep.Streams[0].Frames, rep.Streams[1].Frames)
	}
	cs := rep.CacheStats()
	if cs.Inserts == 0 {
		t.Fatalf("billed verdicts were not stored: %+v", cs)
	}
}

// TestFleetCacheStoreHitServesWithoutBackend drives the scheduler directly:
// a pending keyed request whose signature is already in the cache is served
// from the store — no backend call, no batch charged.
func TestFleetCacheStoreHitServesWithoutBackend(t *testing.T) {
	cfg := DefaultConfig()
	sch, svc := synthScheduler(t, cfg)
	cache, err := cicache.New(cicache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sch.cache = cache
	sch.addStream("cam", svc, pipeline.Timeline{})
	key := cicache.Key{Hi: 3, Lo: 9}
	win := video.Interval{Start: 100, End: 199}
	cache.Put(key, cicache.Relativize([]video.Interval{{Start: 120, End: 140}}, win), win.Start)
	u0 := svc.Usage()
	sch.pending = []pendingReq{{stream: 0, req: pipeline.RelayRequest{
		EventType: 0, Win: win, Key: key, Keyed: true,
	}}}
	sch.dispatch()
	if svc.Usage() != u0 {
		t.Fatal("store hit reached the backend")
	}
	s0 := sch.streams[0]
	if s0.served != 1 || sch.cacheHits != 1 || s0.detections != 1 {
		t.Fatalf("store hit not served: served=%d hits=%d det=%d", s0.served, sch.cacheHits, s0.detections)
	}
	if sch.batches != 0 || sch.framesBilled != 0 {
		t.Fatalf("pure-hit dispatch charged the channel: batches=%d frames=%d", sch.batches, sch.framesBilled)
	}
	if len(sch.pending) != 0 {
		t.Fatalf("hit left the queue dirty: %d pending", len(sch.pending))
	}
}

// TestServeCachedBadHit exercises the honesty rule directly: a cached
// verdict claiming "nothing there" over a window the oracle knows contains
// an occurrence counts as served but is excluded from realized recall.
func TestServeCachedBadHit(t *testing.T) {
	cfg := DefaultConfig()
	cache, err := cicache.New(cicache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sch, _ := synthScheduler(t, cfg)
	sch.cache = cache
	st := video.Generate(video.THUMOS(), mathx.NewRNG(1))
	svc := cloud.NewService(st, cloud.RekognitionPricing(), cloud.DefaultLatency())
	sch.addStream("cam", svc, synthTimeline(1, 0, 10, 100))
	win := video.Interval{Start: 0, End: 9999}
	if len(svc.Peek(0, win)) == 0 {
		t.Fatal("test window contains no occurrence; widen it")
	}
	p := pendingReq{stream: 0, req: pipeline.RelayRequest{
		Horizon: 0, Event: 0, EventType: 0, Win: win, Keyed: true,
	}}
	sch.serveCached(p, cicache.Verdict{}, 0)
	s0 := sch.streams[0]
	if s0.served != 1 || sch.cacheHits != 1 {
		t.Fatalf("bad hit not served: served=%d hits=%d", s0.served, sch.cacheHits)
	}
	if sch.cacheBadHits != 1 {
		t.Fatalf("bad hit not flagged: %d", sch.cacheBadHits)
	}
	if len(s0.unserved) != 1 || s0.unserved[0] != (pipeline.RelayOutcome{Deferred: true}) {
		t.Fatalf("bad hit not excluded from realized recall: %v", s0.unserved)
	}
	// An honest empty hit (window with genuinely nothing) is not a bad hit.
	empty := video.Interval{Start: win.End + 1, End: win.End + 1}
	for len(svc.Peek(0, empty)) != 0 {
		empty = video.Interval{Start: empty.Start + 1, End: empty.End + 1}
	}
	sch.serveCached(pendingReq{stream: 0, req: pipeline.RelayRequest{
		Horizon: 0, Event: 0, EventType: 0, Win: empty, Keyed: true,
	}}, cicache.Verdict{}, 0)
	if sch.cacheBadHits != 1 {
		t.Fatalf("honest empty hit flagged as bad: %d", sch.cacheBadHits)
	}
}

// TestFleetCacheValidation: a malformed cache config is rejected before any
// work happens.
func TestFleetCacheValidation(t *testing.T) {
	streams := []Stream{testStream(t, "cam", 1, 5_000)}
	cfg := DefaultConfig()
	cfg.Cache = &cicache.Config{TTLFrames: -1}
	if _, err := Run(streams, cfg); err == nil {
		t.Fatal("negative TTLFrames accepted")
	}
}
