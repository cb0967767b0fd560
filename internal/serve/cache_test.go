package serve

import (
	"net/http/httptest"
	"strings"
	"testing"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/fleet"
)

// newCachedRelayServer is newRelayServer with the CI result cache enabled.
func newCachedRelayServer(t *testing.T) (*Client, *Bundlewrap, *cloud.Faulty) {
	t.Helper()
	bw := getBundle(t)
	ci := cloud.Inject(cloud.NewService(bw.st, cloud.RekognitionPricing(), cloud.DefaultLatency()), cloud.FaultPlan{})
	cc := cicache.DefaultConfig()
	srv := sessionServer(t, &Config{
		Bundle:            bw.b,
		EventNames:        []string{"Volleyball Spiking"},
		PerFrameUSD:       0.001,
		DefaultConfidence: 0.9,
		DefaultCoverage:   0.9,
		CI:                ci,
		Cache:             &cc,
	}, 1)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client()), bw, ci
}

// TestServerCacheRequiresCI: the cache interposes on the server-owned
// relay, so configuring it without a CI backend is a construction error.
func TestServerCacheRequiresCI(t *testing.T) {
	bw := getBundle(t)
	cc := cicache.DefaultConfig()
	_, err := New(Config{
		Bundle:            bw.b,
		EventNames:        []string{"Volleyball Spiking"},
		PerFrameUSD:       0.001,
		DefaultConfidence: 0.9,
		DefaultCoverage:   0.9,
		Cache:             &cc,
	})
	if err == nil || !strings.Contains(err.Error(), "Cache requires CI") {
		t.Fatalf("err = %v, want Cache-requires-CI", err)
	}
}

// TestServerCacheHitOnRepeatPredict: two predicts at the same anchor sign
// the same window, so the second relay is answered from the cache — same
// detections, no new CI spend, and the savings surface in /v1/stats and
// /metrics.
func TestServerCacheHitOnRepeatPredict(t *testing.T) {
	c, bw, ci := newCachedRelayServer(t)
	pushImminentWindow(t, c, bw)
	r1, err := c.Predict(tctx, "c0", 0.95, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Decisions[0].Relay || r1.Decisions[0].Detections == 0 {
		t.Fatalf("first predict did not relay-and-detect: %+v", r1.Decisions[0])
	}
	u1 := ci.Usage()
	if u1.Frames == 0 {
		t.Fatal("first relay billed nothing")
	}
	r2, err := c.Predict(tctx, "c0", 0.95, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Decisions[0].Relay || r2.Decisions[0].Detections != r1.Decisions[0].Detections {
		t.Fatalf("cached predict diverged: %+v vs %+v", r2.Decisions[0], r1.Decisions[0])
	}
	if u2 := ci.Usage(); u2 != u1 {
		t.Fatalf("repeat predict billed the CI: %+v vs %+v", u2, u1)
	}
	st, err := c.Stats(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.CacheEnabled {
		t.Fatalf("stats do not show the cache: %+v", st)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheEntries != 1 {
		t.Fatalf("cache counters = hits %d misses %d entries %d, want 1/1/1",
			st.CacheHits, st.CacheMisses, st.CacheEntries)
	}
	saved := float64(u1.Frames) * 0.001
	if st.CacheSavedUSD != saved {
		t.Fatalf("CacheSavedUSD = %v, want %v (one relay's bill)", st.CacheSavedUSD, saved)
	}
	// The second relay still counts as spent estimate frames client-side,
	// but the CI meter must show only the first relay.
	if st.CISpentUSD != u1.SpentUSD {
		t.Fatalf("CISpentUSD = %v, want %v", st.CISpentUSD, u1.SpentUSD)
	}
	body, _ := getBody(t, c.base+"/metrics")
	for _, want := range []string{
		"eventhit_cicache_hits_total 1",
		"eventhit_cicache_misses_total 1",
		"eventhit_cicache_inserts_total 1",
		"eventhit_cicache_saved_frames_total",
		"eventhit_cicache_saved_usd_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServerCacheHitBypassesArbiter: a relay the cache can already answer
// is free, so the fleet arbiter must not spend budget on it or decline it.
// The budget covers exactly one relay; the repeat predict is served from
// the cache instead of coming back deferred.
func TestServerCacheHitBypassesArbiter(t *testing.T) {
	bw := getBundle(t)
	ci := cloud.Inject(cloud.NewService(bw.st, cloud.RekognitionPricing(), cloud.DefaultLatency()), cloud.FaultPlan{})
	cc := cicache.DefaultConfig()
	srv := sessionServer(t, &Config{
		Bundle:            bw.b,
		EventNames:        []string{"Volleyball Spiking"},
		PerFrameUSD:       0.001,
		DefaultConfidence: 0.9,
		DefaultCoverage:   0.9,
		CI:                ci,
		Cache:             &cc,
		// One 200-frame relay costs $0.20: the second uncached attempt
		// would be declined.
		Fleet: &fleet.ArbiterConfig{PerFrameUSD: 0.001, GlobalBudgetUSD: 0.25},
	}, 1)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, ts.Client())
	pushImminentWindow(t, c, bw)
	r1, err := c.Predict(tctx, "c0", 0.95, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Decisions[0].Relay || r1.Decisions[0].Deferred {
		t.Fatalf("first predict not admitted: %+v", r1.Decisions[0])
	}
	st1, err := c.Stats(tctx)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Predict(tctx, "c0", 0.95, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Decisions[0].Deferred {
		t.Fatalf("cached repeat was declined by the arbiter: %+v", r2.Decisions[0])
	}
	if r2.Decisions[0].Detections != r1.Decisions[0].Detections {
		t.Fatalf("cached repeat diverged: %+v vs %+v", r2.Decisions[0], r1.Decisions[0])
	}
	st2, err := c.Stats(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if st2.CacheHits != 1 || st2.AdmissionDeferred != 0 {
		t.Fatalf("hit/admission counters = %d/%d, want 1/0", st2.CacheHits, st2.AdmissionDeferred)
	}
	// The free relay moved neither the admitted spend nor the to-cloud
	// frame estimate.
	if st2.AdmittedUSD != st1.AdmittedUSD {
		t.Fatalf("cache hit charged the budget: %v -> %v", st1.AdmittedUSD, st2.AdmittedUSD)
	}
	if st2.FramesToCloud != st1.FramesToCloud {
		t.Fatalf("cache hit counted as shipped frames: %d -> %d", st1.FramesToCloud, st2.FramesToCloud)
	}
}

// TestServerCacheOffStatsZero: without Config.Cache the stats report the
// cache as disabled with all counters zero, so dashboards can tell "off"
// from "on but cold".
func TestServerCacheOffStatsZero(t *testing.T) {
	c, bw, _ := newRelayServer(t, cloud.FaultPlan{})
	pushImminentWindow(t, c, bw)
	if _, err := c.Predict(tctx, "c0", 0.95, 0.9); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheEnabled || st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheSavedUSD != 0 {
		t.Fatalf("uncached server leaked cache stats: %+v", st)
	}
}
