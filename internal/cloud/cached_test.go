package cloud

import (
	"math"
	"testing"

	"eventhit/internal/cicache"
	"eventhit/internal/video"
)

func newCached(t *testing.T, cfg cicache.Config) (*CachedBackend, *Service) {
	t.Helper()
	svc := NewService(testStream(), RekognitionPricing(), DefaultLatency())
	cache, err := cicache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewCachedBackend(svc, cache, PerFrameUSDOf(svc)), svc
}

func TestCachedExactDedupUnbilled(t *testing.T) {
	b, svc := newCached(t, cicache.DefaultConfig())
	win := video.Interval{Start: 150, End: 520}

	det1, lat1, err := b.DetectTimed(0, win)
	if err != nil {
		t.Fatal(err)
	}
	if lat1 == 0 || len(det1.Found) != 2 {
		t.Fatalf("miss should delegate: lat=%v det=%v", lat1, det1)
	}
	u1 := svc.Usage()

	// The identical request again: zero latency, zero billing, same verdict.
	det2, lat2, err := b.DetectTimed(0, win)
	if err != nil {
		t.Fatal(err)
	}
	if lat2 != 0 {
		t.Fatalf("hit charged %v ms of latency", lat2)
	}
	if len(det2.Found) != 2 || det2.Found[0] != det1.Found[0] || det2.Found[1] != det1.Found[1] {
		t.Fatalf("hit verdict %v differs from stored %v", det2.Found, det1.Found)
	}
	if u2 := svc.Usage(); u2 != u1 {
		t.Fatalf("hit touched the CI meter: %+v vs %+v", u2, u1)
	}
	sv := b.Savings()
	if hits := b.Cache().Stats().Hits; hits != 1 || sv.SavedFrames != int64(win.Len()) {
		t.Fatalf("%d hits, savings %+v", hits, sv)
	}
	if want := float64(win.Len()) * 0.001; math.Abs(sv.SavedUSD-want) > 1e-12 {
		t.Fatalf("saved %v USD, want %v", sv.SavedUSD, want)
	}
	// A different window is a miss.
	if _, lat, err := b.DetectTimed(0, video.Interval{Start: 151, End: 520}); err != nil || lat == 0 {
		t.Fatalf("distinct request served from cache: lat=%v err=%v", lat, err)
	}
}

func TestCachedKeyedHitReanchors(t *testing.T) {
	b, svc := newCached(t, cicache.DefaultConfig())
	// The event occupies [100,199]. Sign a window that sees it at relative
	// offset 50, then hit with the same key at a different absolute range
	// where the oracle would find nothing — the cache re-anchors the stored
	// relative verdict.
	key := cicache.Key{Hi: 42, Lo: 7}
	src := video.Interval{Start: 50, End: 249}
	if _, _, err := b.DetectTimedKeyed(key, 0, src); err != nil {
		t.Fatal(err)
	}
	u1 := svc.Usage()
	dst := video.Interval{Start: 1050, End: 1249}
	det, lat, err := b.DetectTimedKeyed(key, 0, dst)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 0 || svc.Usage() != u1 {
		t.Fatal("keyed hit reached the backend")
	}
	want := video.Interval{Start: 1100, End: 1199} // [100,199] shifted by +1000
	if len(det.Found) != 1 || det.Found[0] != want {
		t.Fatalf("re-anchored verdict %v, want [%v]", det.Found, want)
	}
}

func TestCachedTTLExpiryFallsThrough(t *testing.T) {
	cfg := cicache.DefaultConfig()
	cfg.TTLFrames = 100
	b, svc := newCached(t, cfg)
	key := cicache.Key{Hi: 1, Lo: 2}
	if _, _, err := b.DetectTimedKeyed(key, 0, video.Interval{Start: 100, End: 199}); err != nil {
		t.Fatal(err)
	}
	// Far downstream: the entry is stale, the request must bill again.
	u1 := svc.Usage()
	if _, lat, err := b.DetectTimedKeyed(key, 0, video.Interval{Start: 5000, End: 5099}); err != nil || lat == 0 {
		t.Fatalf("stale hit served: lat=%v err=%v", lat, err)
	}
	if u2 := svc.Usage(); u2.Frames != u1.Frames+100 {
		t.Fatalf("expired lookup did not rebill: %+v vs %+v", u2, u1)
	}
}

func TestCachedErrorNotCached(t *testing.T) {
	svc := NewService(testStream(), RekognitionPricing(), DefaultLatency())
	cache, err := cicache.New(cicache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The first request falls in an outage; the rest are served.
	faulty := Inject(svc, FaultPlan{Outages: []ReqWindow{{Start: 0, End: 1}}})
	b := NewCachedBackend(faulty, cache, PerFrameUSDOf(faulty))
	win := video.Interval{Start: 100, End: 199}
	if _, _, err := b.DetectTimed(0, win); err == nil {
		t.Fatal("injected fault did not surface")
	}
	// The failure must not have been stored: the retry reaches the backend
	// and succeeds.
	det, lat, err := b.DetectTimed(0, win)
	if err != nil || lat == 0 || len(det.Found) != 1 {
		t.Fatalf("retry after fault: det=%v lat=%v err=%v", det, lat, err)
	}
}

func TestPerFrameUSDOf(t *testing.T) {
	svc := NewService(testStream(), RekognitionPricing(), DefaultLatency())
	if p := PerFrameUSDOf(svc); math.Abs(p-0.001) > 1e-15 {
		t.Fatalf("service price %v", p)
	}
	f := Inject(svc, FaultPlan{})
	if p := PerFrameUSDOf(f); math.Abs(p-0.001) > 1e-15 {
		t.Fatalf("faulty price %v", p)
	}
}
