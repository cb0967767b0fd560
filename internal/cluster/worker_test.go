package cluster

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/fleet"
	"eventhit/internal/serve"
)

// TestWorkerHungCoordinatorDefers: a coordinator that accepts connections
// and never answers costs a worker's predict at most the internal-call
// deadline per coordinator call, never forever. The stub answers the
// dial-time cache-config fetch and then hangs on every other path. A
// lease-gated, CI-relaying worker's predict that decides a relay waits out
// the remote-cache probe (which fails open: absent, so the relay is not
// free) and the lease (which grants nothing), and comes back deferred.
func TestWorkerHungCoordinatorDefers(t *testing.T) {
	bw := getClusterBundle(t)
	release := make(chan struct{})
	var mu sync.Mutex
	seen := map[string]int{}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.URL.Path]++
		mu.Unlock()
		if r.URL.Path == "/v1/cluster/cache/config" {
			writeJSON(w, cicache.DefaultConfig())
			return
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	// Cleanups run last-in first-out: free any handler still hanging, then
	// close the stub.
	t.Cleanup(stub.Close)
	t.Cleanup(func() { close(release) })

	cfg := baseServeConfig(bw)
	cfg.CI = cloud.NewService(bw.st, cloud.RekognitionPricing(), cloud.DefaultLatency())
	cfg.Fleet = &fleet.ArbiterConfig{PerFrameUSD: 0.001}
	w, err := NewWorker(WorkerConfig{ID: "w0", Coordinator: stub.URL, Serve: cfg})
	if err != nil {
		t.Fatal(err)
	}
	// No registration: the stub would hang that too.
	url, err := w.Start("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	c := serve.NewClient(url, nil)

	// The ten frames just before an imminent event: EHCR relays.
	anchor := bw.st.ByType[0][30].OI.Start - 20
	var frames [][]float64
	for f := anchor - 9; f <= anchor; f++ {
		frames = append(frames, bw.ex.FrameVector(f, nil))
	}
	if _, err := c.PushFrames(tctx, frames); err != nil {
		t.Fatal(err)
	}
	type result struct {
		resp serve.PredictResponse
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := c.Predict(tctx, 0.95, 0.9)
		done <- result{resp, err}
	}()
	var r result
	select {
	case r = <-done:
	case <-time.After(3 * callTimeout):
		t.Fatalf("predict still blocked after %v behind a hung coordinator", 3*callTimeout)
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	if d := r.resp.Decisions[0]; !d.Relay || !d.Deferred {
		t.Fatalf("decision %+v, want a deferred relay", d)
	}
	st, err := c.Stats(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.CacheEnabled || st.CacheHits != 0 || st.AdmissionDeferred != 1 || st.FramesToCloud != 0 {
		t.Fatalf("stats %+v: want the remote cache wired, no hit, one admission deferral, nothing sent", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if seen["/v1/cluster/cache/contains"] != 1 || seen["/v1/cluster/lease"] != 1 {
		t.Fatalf("coordinator calls %v, want one cache probe and one lease request", seen)
	}
}
