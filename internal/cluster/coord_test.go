package cluster

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"eventhit/internal/cicache"
	"eventhit/internal/fleet"
)

// TestLeaseLedger pins the integer-frame translation of the cap and the
// grant/trim/return arithmetic.
func TestLeaseLedger(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{BudgetUSD: 1.0, PerFrameUSD: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	bs := c.Budget()
	// maxFrames is the LARGEST n with n*0.001 <= 1.0 under float64.
	if float64(bs.MaxFrames)*0.001 > 1.0 || float64(bs.MaxFrames+1)*0.001 <= 1.0 {
		t.Fatalf("maxFrames %d is not the cap boundary", bs.MaxFrames)
	}
	if got := c.Lease(600); got != 600 {
		t.Fatalf("first lease granted %d", got)
	}
	if got := c.Lease(600); int64(got) != bs.MaxFrames-600 {
		t.Fatalf("second lease granted %d, want trim to %d", got, bs.MaxFrames-600)
	}
	if got := c.Lease(10); got != 0 {
		t.Fatalf("exhausted ledger granted %d", got)
	}
	c.ReturnLease(400)
	if got := c.Lease(1000); got != 400 {
		t.Fatalf("post-return lease granted %d, want 400", got)
	}
	// Returning more than is out clamps instead of going negative.
	c.ReturnLease(1 << 30)
	if got := c.Budget().OutFrames; got != 0 {
		t.Fatalf("over-return left %d frames out", got)
	}
}

// TestLeaseUncapped: BudgetUSD 0 grants everything.
func TestLeaseUncapped(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{PerFrameUSD: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Lease(1 << 20); got != 1<<20 {
		t.Fatalf("uncapped lease granted %d", got)
	}
}

// TestLeaseConcurrentNeverOvershoots: many goroutines leasing concurrently
// can never pull more frames than the cap converts to — the invariant the
// whole cluster budget story rests on.
func TestLeaseConcurrentNeverOvershoots(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{BudgetUSD: 0.5, PerFrameUSD: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	maxFrames := c.Budget().MaxFrames
	var granted int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := c.Lease(7)
				mu.Lock()
				granted += int64(n)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if granted != maxFrames {
		t.Fatalf("granted %d, want exactly the cap %d (8*200*7 > cap)", granted, maxFrames)
	}
	if float64(granted)*0.001 > 0.5 {
		t.Fatalf("granted frames price to %.6f > cap", float64(granted)*0.001)
	}
}

// TestLeaseHTTPAndArbiters drives the coordinator over real HTTP through
// two fleet arbiters (two workers' admission gates): whatever each admits,
// the SUM of admitted spend stays under the global cap, and unspent
// headroom flows back on ReturnLease.
func TestLeaseHTTPAndArbiters(t *testing.T) {
	// The cap, 1500 frames, exceeds one 1024-frame lease chunk, so both
	// arbiters lease a share of it.
	const capUSD, relay = 1.5, 30
	coord, err := NewCoordinator(CoordinatorConfig{BudgetUSD: capUSD, PerFrameUSD: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	defer ts.Close()

	newArb := func() *fleet.Arbiter {
		a, err := fleet.NewArbiter(fleet.ArbiterConfig{
			PerFrameUSD: 0.001,
			Lease:       &coordLease{base: ts.URL, hc: ts.Client()},
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a1, a2 := newArb(), newArb()

	admitted := 0
	deferred := 0
	for i := 0; i < 40; i++ {
		for _, a := range []*fleet.Arbiter{a1, a2} {
			switch a.Admit("cam", relay) {
			case fleet.Admit:
				admitted++
			case fleet.DeferBudget:
				deferred++
			default:
				t.Fatal("unexpected rate deferral without buckets")
			}
		}
	}
	// 80 relays of 30 frames ask for 2400 frames against the 1500 the cap
	// holds, split across the two arbiters however chunking lands.
	spend := float64(admitted*relay) * 0.001
	if spend > capUSD {
		t.Fatalf("two arbiters admitted %.4f USD over the %v cap", spend, capUSD)
	}
	if admitted == 0 || deferred == 0 {
		t.Fatalf("admitted %d, deferred %d — want both nonzero", admitted, deferred)
	}
	st1, st2 := a1.Stats(), a2.Stats()
	if st1.LeasedFrames == 0 || st2.LeasedFrames == 0 {
		t.Fatalf("leases %d and %d: want both arbiters holding a share", st1.LeasedFrames, st2.LeasedFrames)
	}
	if st1.LeasedFrames+st2.LeasedFrames > coord.Budget().MaxFrames {
		t.Fatalf("leases %d+%d exceed cap %d", st1.LeasedFrames, st2.LeasedFrames, coord.Budget().MaxFrames)
	}
	// Drain both workers: held (unspent) headroom returns to the pool;
	// SPENT frames stay out forever — that permanence is the cap.
	a1.ReturnLease()
	a2.ReturnLease()
	bs := coord.Budget()
	if bs.OutFrames != int64(admitted*relay) {
		t.Fatalf("after return, %d frames out; want exactly the spent %d (leased %d+%d)",
			bs.OutFrames, admitted*relay, st1.LeasedFrames, st2.LeasedFrames)
	}
}

// TestLeaseHTTPValidation: malformed lease requests are 400s.
func TestLeaseHTTPValidation(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{BudgetUSD: 1, PerFrameUSD: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	defer ts.Close()
	for _, body := range []string{`{"frames": -5}`, `{"frames": 0}`, `not json`} {
		resp, err := ts.Client().Post(ts.URL+"/v1/cluster/lease", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("lease %q -> %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestNewCoordinatorValidation: a negative or NaN budget is refused; a NaN
// one would compute no frame cap and grant every lease in full.
func TestNewCoordinatorValidation(t *testing.T) {
	for _, cfg := range []CoordinatorConfig{
		{BudgetUSD: -1, PerFrameUSD: 0.001},
		{BudgetUSD: math.NaN(), PerFrameUSD: 0.001},
		{BudgetUSD: 1, PerFrameUSD: math.NaN()},
	} {
		if _, err := NewCoordinator(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// TestCoordinatorCacheEndpoints: the hosted cache round-trips verdicts
// over HTTP and 404s when no cache is configured.
func TestCoordinatorCacheEndpoints(t *testing.T) {
	cacheCfg := cicache.DefaultConfig()
	coord, err := NewCoordinator(CoordinatorConfig{Cache: &cacheCfg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	defer ts.Close()

	if _, err := DialRemoteCache(ts.URL, ts.Client()); err != nil {
		t.Fatal(err)
	}

	// No-cache coordinator: dial fails cleanly.
	bare, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tsBare := httptest.NewServer(bare)
	defer tsBare.Close()
	if _, err := DialRemoteCache(tsBare.URL, tsBare.Client()); err == nil {
		t.Fatal("dial against cacheless coordinator should fail")
	}
}
