package cluster

import (
	"net/http/httptest"
	"testing"

	"eventhit/internal/cicache"
	"eventhit/internal/video"
)

func newCacheFixture(t *testing.T) (*httptest.Server, *RemoteCache) {
	t.Helper()
	cfg := cicache.DefaultConfig()
	coord, err := NewCoordinator(CoordinatorConfig{Cache: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)
	rc, err := DialRemoteCache(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return ts, rc
}

// TestRemoteCacheRoundTrip: a verdict inserted through one worker's remote
// handle is served to another handle with the intervals intact — the
// cross-worker dedup path.
func TestRemoteCacheRoundTrip(t *testing.T) {
	ts, rc := newCacheFixture(t)
	k := cicache.Key{Hi: 0xfeed, Lo: 0xbeef}
	v := cicache.Verdict{Rel: []video.Interval{{Start: 3, End: 17}, {Start: 40, End: 41}}}

	if _, ok := rc.Get(k, 100); ok {
		t.Fatal("hit before insert")
	}
	rc.Put(k, v, 100)
	// A second handle (another worker) sees the entry.
	rc2, err := DialRemoteCache(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := rc2.Get(k, 120)
	if !ok || len(got.Rel) != 2 || got.Rel[0] != v.Rel[0] || got.Rel[1] != v.Rel[1] {
		t.Fatalf("cross-handle get = %+v ok=%v", got, ok)
	}
	if !rc2.Contains(k, 120) {
		t.Fatal("contains missed a live entry")
	}
	// Each handle counts the lookups made through it, not the shared total.
	if st := rc.Stats(); st != (cicache.Stats{Lookups: 1, Misses: 1}) {
		t.Fatalf("first handle stats %+v, want its own 1 miss", st)
	}
	if st := rc2.Stats(); st != (cicache.Stats{Lookups: 1, Hits: 1}) {
		t.Fatalf("second handle stats %+v, want its own 1 hit", st)
	}
}

// TestRemoteCacheTTL: the hosted cache enforces its frame TTL exactly as a
// local one would.
func TestRemoteCacheTTL(t *testing.T) {
	_, rc := newCacheFixture(t)
	ttl := cicache.DefaultConfig().TTLFrames
	k := cicache.Key{Hi: 1, Lo: 2}
	rc.Put(k, cicache.Verdict{Rel: []video.Interval{{Start: 0, End: 5}}}, 1000)
	if _, ok := rc.Get(k, 1000+ttl); !ok {
		t.Fatal("entry expired within TTL")
	}
	if _, ok := rc.Get(k, 1000+ttl+1); ok {
		t.Fatal("entry served past TTL")
	}
}

// TestRemoteCacheFailsOpen: with the coordinator gone, lookups are misses,
// inserts are dropped, and nothing errors — the worker keeps serving at
// uncached cost.
func TestRemoteCacheFailsOpen(t *testing.T) {
	ts, rc := newCacheFixture(t)
	ts.Close()
	k := cicache.Key{Hi: 9, Lo: 9}
	if _, ok := rc.Get(k, 0); ok {
		t.Fatal("dead coordinator produced a hit")
	}
	rc.Put(k, cicache.Verdict{}, 0) // must not panic or block
	if rc.Contains(k, 0) {
		t.Fatal("dead coordinator contains = true")
	}
	// The failed lookup was a miss to this worker and is counted as one.
	if st := rc.Stats(); st != (cicache.Stats{Lookups: 1, Misses: 1}) {
		t.Fatalf("dead coordinator stats = %+v, want the one failed lookup as a miss", st)
	}
}
