package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/mathx"
	"eventhit/internal/pipeline"
	"eventhit/internal/resilience"
	"eventhit/internal/video"
)

// faultyTransport injects per-path faults between a RemoteCache and a live
// coordinator, counting every attempt: mode "conn" fails at the transport,
// "http500" answers a server error, "garbage" answers 200 with a body that
// is not JSON. Paths without a mode pass through untouched.
type faultyTransport struct {
	base http.RoundTripper

	mu       sync.Mutex
	modes    map[string]string // URL path -> fault mode
	attempts map[string]int    // URL path -> requests seen
}

func newFaultyTransport(base http.RoundTripper) *faultyTransport {
	return &faultyTransport{base: base, modes: map[string]string{}, attempts: map[string]int{}}
}

func (f *faultyTransport) set(mode string, paths ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range paths {
		if mode == "" {
			delete(f.modes, p)
		} else {
			f.modes[p] = mode
		}
	}
}

func (f *faultyTransport) count(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attempts[path]
}

func (f *faultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.attempts[req.URL.Path]++
	mode := f.modes[req.URL.Path]
	f.mu.Unlock()
	switch mode {
	case "conn":
		return nil, fmt.Errorf("injected connection fault on %s", req.URL.Path)
	case "http500":
		return &http.Response{
			StatusCode: http.StatusInternalServerError,
			Body:       io.NopCloser(strings.NewReader("injected server fault")),
			Header:     http.Header{},
			Request:    req,
		}, nil
	case "garbage":
		return &http.Response{
			StatusCode: http.StatusOK,
			Body:       io.NopCloser(strings.NewReader("{not json")),
			Header:     http.Header{"Content-Type": []string{"application/json"}},
			Request:    req,
		}, nil
	}
	return f.base.RoundTrip(req)
}

const (
	cachePathGet      = "/v1/cluster/cache/get"
	cachePathPut      = "/v1/cluster/cache/put"
	cachePathContains = "/v1/cluster/cache/contains"
	cachePathStats    = "/v1/cluster/cache/stats"
)

var cachePaths = []string{cachePathGet, cachePathPut, cachePathContains, cachePathStats}

// newFaultableCache stands up a live coordinator cache plus a RemoteCache
// handle whose every request passes through a fault-injecting transport
// (clean until a mode is set, so the dial-time config fetch succeeds).
func newFaultableCache(t *testing.T) (*RemoteCache, *faultyTransport) {
	t.Helper()
	cfg := cicache.DefaultConfig()
	coord, err := NewCoordinator(CoordinatorConfig{Cache: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)
	ft := newFaultyTransport(ts.Client().Transport)
	rc, err := DialRemoteCache(ts.URL, &http.Client{Transport: ft})
	if err != nil {
		t.Fatal(err)
	}
	return rc, ft
}

// TestRemoteCacheFaultDegradation holds every RemoteCache operation to the
// fail-open contract under injected transport faults, server errors and
// undecodable bodies: Get degrades to a miss, Put to a no-op, Contains to
// false — and each makes exactly one attempt (no hidden retry loop; retry
// policy belongs to the resilient client above, which must be able to see
// true attempt counts). Stats never leaves the process.
func TestRemoteCacheFaultDegradation(t *testing.T) {
	live := cicache.Key{Hi: 1, Lo: 1}
	for _, mode := range []string{"conn", "http500", "garbage"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			rc, ft := newFaultableCache(t)
			rc.Put(live, cicache.Verdict{Rel: []video.Interval{{Start: 0, End: 4}}}, 10)
			if _, ok := rc.Get(live, 10); !ok {
				t.Fatal("clean warm-up lookup missed")
			}
			ft.set(mode, cachePaths...)

			before := ft.count(cachePathGet)
			if _, ok := rc.Get(live, 10); ok {
				t.Errorf("%s: faulted Get returned a hit", mode)
			}
			if got := ft.count(cachePathGet) - before; got != 1 {
				t.Errorf("%s: Get made %d attempts, want exactly 1", mode, got)
			}

			dropped := cicache.Key{Hi: 2, Lo: 2}
			before = ft.count(cachePathPut)
			rc.Put(dropped, cicache.Verdict{Rel: []video.Interval{{Start: 7, End: 9}}}, 10)
			if got := ft.count(cachePathPut) - before; got != 1 {
				t.Errorf("%s: Put made %d attempts, want exactly 1", mode, got)
			}

			before = ft.count(cachePathContains)
			if rc.Contains(live, 10) {
				t.Errorf("%s: faulted Contains reported true", mode)
			}
			if got := ft.count(cachePathContains) - before; got != 1 {
				t.Errorf("%s: Contains made %d attempts, want exactly 1", mode, got)
			}

			// Stats is local: the warm-up hit and the faulted Get (a miss to
			// this worker), read without touching the coordinator.
			before = ft.count(cachePathStats)
			if st := rc.Stats(); st != (cicache.Stats{Lookups: 2, Hits: 1, Misses: 1}) {
				t.Errorf("%s: Stats = %+v, want 1 hit / 1 miss", mode, st)
			}
			if got := ft.count(cachePathStats) - before; got != 0 {
				t.Errorf("%s: Stats made %d coordinator requests, want none", mode, got)
			}

			// Heal the transport: the live entry survived, the faulted Put
			// really was a no-op (not queued for replay), and the handle
			// needs no re-dial.
			ft.set("", cachePaths...)
			if _, ok := rc.Get(live, 10); !ok {
				t.Errorf("%s: live entry lost after fault window", mode)
			}
			if _, ok := rc.Get(dropped, 10); ok {
				t.Errorf("%s: faulted Put reached the coordinator", mode)
			}
		})
	}
}

// TestCachedBackendFaultyCacheBreakerAccounting: a broken remote cache in
// front of a healthy CI must be invisible to the resilient client — every
// relay succeeds at uncached cost with zero recorded failures and the
// breaker closed. Cache faults must never trip the CI breaker.
func TestCachedBackendFaultyCacheBreakerAccounting(t *testing.T) {
	rc, ft := newFaultableCache(t)
	ft.set("conn", cachePaths...)

	st := video.Generate(video.THUMOS(), mathx.NewRNG(1))
	inner := cloud.NewService(st, cloud.RekognitionPricing(), cloud.DefaultLatency())
	relay := pipeline.NewRelay(inner, rc, cloud.PerFrameUSDOf(inner), resilience.DefaultConfig(1), nil)
	client := relay.Client()

	const relays = 5
	getBefore, putBefore := ft.count(cachePathGet), ft.count(cachePathPut)
	for i := 0; i < relays; i++ {
		win := video.Interval{Start: i * 200, End: i*200 + 99}
		out, err := relay.Serve(pipeline.RelayRequest{EventType: 0, Win: win})
		if err != nil {
			t.Fatalf("relay %d failed through a faulty cache: %v", i, err)
		}
		if a := client.Stats().Attempts; out.Deferred || out.Retried || a != int64(i+1) {
			t.Fatalf("relay %d: %+v after %d attempts, want one clean attempt each", i, out, a)
		}
	}
	cs := client.Stats()
	if cs.Requests != relays || cs.Attempts != relays || cs.Failures != 0 || cs.Retries != 0 || cs.Trips != 0 {
		t.Fatalf("client stats %+v: cache faults leaked into CI accounting", cs)
	}
	if state := client.BreakerState(); state != resilience.Closed {
		t.Fatalf("breaker state %v, want Closed", state)
	}
	// Every relay tried the cache exactly once each way (miss, then a
	// dropped insert) and was billed by the inner CI.
	if got := ft.count(cachePathGet) - getBefore; got != relays {
		t.Errorf("cache saw %d get attempts, want %d", got, relays)
	}
	if got := ft.count(cachePathPut) - putBefore; got != relays {
		t.Errorf("cache saw %d put attempts, want %d", got, relays)
	}
	if u := inner.Usage(); u.Frames != relays*100 {
		t.Errorf("inner CI billed %d frames, want %d (all relays uncached)", u.Frames, relays*100)
	}
}
