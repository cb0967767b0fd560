package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"eventhit/internal/core"
	"eventhit/internal/strategy"
)

func newSwapServer(t *testing.T, cfg Config) (*Server, *Client, *Bundlewrap) {
	t.Helper()
	bw := getBundle(t)
	if cfg.Bundle == nil {
		cfg.Bundle = bw.b
	}
	if cfg.EventNames == nil {
		cfg.EventNames = []string{"Volleyball Spiking"}
	}
	if cfg.PerFrameUSD == 0 {
		cfg.PerFrameUSD = 0.001
	}
	if cfg.DefaultConfidence == 0 {
		cfg.DefaultConfidence = 0.9
	}
	if cfg.DefaultCoverage == 0 {
		cfg.DefaultCoverage = 0.9
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL, ts.Client()), bw
}

// fillWindow pushes one full prediction window for the default session.
func fillWindow(t *testing.T, c *Client, bw *Bundlewrap, start int) {
	t.Helper()
	frames := make([][]float64, 0, 10)
	for f := start; f < start+10; f++ {
		frames = append(frames, bw.ex.FrameVector(f, nil))
	}
	if _, err := c.PushFrames(tctx, frames); err != nil {
		t.Fatal(err)
	}
}

func TestModelPushRoundTrip(t *testing.T) {
	_, c, bw := newSwapServer(t, Config{})
	fillWindow(t, c, bw, 300)
	before, err := c.Predict(tctx, 0.9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// Push an identical bundle: the swap must succeed, bump the generation,
	// and serve identical decisions afterwards.
	mr, err := c.PushModel(tctx, bw.b)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Generation != 1 {
		t.Fatalf("generation = %d, want 1", mr.Generation)
	}
	if mr.Params != bw.b.Model.NumParams() {
		t.Fatalf("params = %d, want %d", mr.Params, bw.b.Model.NumParams())
	}
	after, err := c.Predict(tctx, 0.9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if after.Decisions[0].Relay != before.Decisions[0].Relay ||
		after.Decisions[0].Start != before.Decisions[0].Start {
		t.Fatalf("identical bundle changed the decision: %+v vs %+v", after, before)
	}
	st, err := c.Stats(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.ModelGeneration != 1 || st.AdminSwaps != 1 || st.RecalibrationSwaps != 0 {
		t.Fatalf("swap stats = %+v", st)
	}
	// New sessions start on the swapped-in unit.
	if _, err := c.CreateSession(tctx, "cam-2", ""); err != nil {
		t.Fatal(err)
	}
	mr2, err := c.PushModel(tctx, bw.b)
	if err != nil {
		t.Fatal(err)
	}
	if mr2.Generation != 2 {
		t.Fatalf("second push generation = %d, want 2", mr2.Generation)
	}
}

func TestModelPushRejectsGarbage(t *testing.T) {
	_, c, _ := newSwapServer(t, Config{})
	resp, err := c.hc.Post(c.base+"/v1/model", "application/octet-stream",
		bytes.NewReader([]byte("not a bundle")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("garbage push returned %d, want 400", resp.StatusCode)
	}
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestModelPushTooLargeIs413: a push past MaxBundleBytes is 413, not 400.
// The decoders wrap the body's read error with %w, so the status must come
// from errors.As. The body is a gob length prefix declaring a 100 MiB first
// message followed by zeros: the decoder keeps reading until the cap stops it.
func TestModelPushTooLargeIs413(t *testing.T) {
	srv, _, _ := newSwapServer(t, Config{})
	const declared = 100 << 20 // > MaxBundleBytes
	// gob's unsigned encoding: the negated byte count, then big-endian bytes.
	prefix := binary.BigEndian.AppendUint32([]byte{0xFC}, declared)
	req := httptest.NewRequest("POST", "/v1/model", io.MultiReader(bytes.NewReader(prefix), zeros{}))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized push returned %d (%s), want 413", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
}

// TestSwapRejectsMismatchedGeometry: a bundle whose model disagrees with
// the server's frozen geometry must be rejected at swap time — never
// installed to fail as a 500 at the next frame.
func TestSwapRejectsMismatchedGeometry(t *testing.T) {
	srv, c, bw := newSwapServer(t, Config{})
	d := bw.ex.Dim()
	cases := []struct {
		name             string
		dim, win, hor, k int
		wantErr          string
	}{
		{"input dim", d + 1, 10, 200, 1, "input dim"},
		{"window", d, 12, 200, 1, "window"},
		{"horizon", d, 10, 100, 1, "horizon"},
	}
	for _, tc := range cases {
		m2, err := core.New(core.DefaultConfig(tc.dim, tc.win, tc.hor, tc.k))
		if err != nil {
			t.Fatal(err)
		}
		bad := &strategy.Bundle{
			Model: m2, Classifier: bw.b.Classifier, Regressor: bw.b.Regressor,
			Scaled: bw.b.Scaled, Tau1: bw.b.Tau1, Tau2: bw.b.Tau2,
		}
		if _, err := srv.Swap(bad, swapOriginAdmin); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: Swap error = %v, want %q", tc.name, err, tc.wantErr)
		}
		if _, err := c.PushModel(tctx, bad); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: PushModel error = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
	// Nothing was installed: generation still 0 and predicts still work.
	st, err := c.Stats(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.ModelGeneration != 0 || st.AdminSwaps != 0 {
		t.Fatalf("rejected swaps advanced state: %+v", st)
	}
	fillWindow(t, c, bw, 300)
	if _, err := c.Predict(tctx, 0.9, 0.9); err != nil {
		t.Fatalf("predict after rejected swaps: %v", err)
	}
}

// TestSwapUnderConcurrentPredictLoad hammers predict from many goroutines
// while the main goroutine swaps bundles as fast as it can. Run with
// -race: every request must resolve one consistent unit, and decisions
// must be identical before, during, and after swaps (the pushed bundles
// are clones of the serving one).
func TestSwapUnderConcurrentPredictLoad(t *testing.T) {
	srv, c, bw := newSwapServer(t, Config{})
	fillWindow(t, c, bw, 300)
	want, err := c.Predict(tctx, 0.9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, err := c.Predict(tctx, 0.9, 0.9)
				if err != nil {
					t.Error(err)
					return
				}
				if r.Decisions[0].Relay != want.Decisions[0].Relay ||
					r.Decisions[0].Start != want.Decisions[0].Start {
					t.Errorf("decision changed under swap: %+v vs %+v", r, want)
					return
				}
			}
		}()
	}
	const swaps = 25
	for i := 0; i < swaps; i++ {
		if _, err := srv.Swap(bw.b.Clone(), swapOriginAdmin); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	st, err := c.Stats(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.ModelGeneration != swaps || st.AdminSwaps != swaps {
		t.Fatalf("generation/adminSwaps = %d/%d, want %d", st.ModelGeneration, st.AdminSwaps, swaps)
	}
}
