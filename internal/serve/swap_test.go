package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"eventhit/internal/conformal"
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
	srv := sessionServer(t, &cfg, 1)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL, ts.Client()), bw
}

// fillWindow pushes one full prediction window for session "c0".
func fillWindow(t *testing.T, c *Client, bw *Bundlewrap, start int) {
	t.Helper()
	frames := make([][]float64, 0, 10)
	for f := start; f < start+10; f++ {
		frames = append(frames, bw.ex.FrameVector(f, nil))
	}
	if _, err := c.PushFrames(tctx, "c0", frames); err != nil {
		t.Fatal(err)
	}
}

func TestModelPushRoundTrip(t *testing.T) {
	_, c, bw := newSwapServer(t, Config{})
	fillWindow(t, c, bw, 300)
	before, err := c.Predict(tctx, "c0", 0.9, 0.9)
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
	after, err := c.Predict(tctx, "c0", 0.9, 0.9)
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
	if _, err := c.CreateSession(tctx, "cam-2"); err != nil {
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

// TestModelPushRefusesOversizedConfig: a bundle is believed only as far
// as the push's byte budget. A body of a few hundred bytes whose model
// config asks for a 2048-wide input and LSTM (4H(D+H) ≈ 33.5M weights)
// must be refused before the model is built: without the check it
// allocated 512 MiB and only then failed on the missing weights.
func TestModelPushRefusesOversizedConfig(t *testing.T) {
	srv, _, bw := newSwapServer(t, Config{})
	cfg := bw.b.Model.Config()
	cfg.InputDim, cfg.HiddenLSTM = 2048, 2048
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(cfg); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/model", bytes.NewReader(body.Bytes()))
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("%d-byte push returned %d (%s), want 400", body.Len(), rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("%d-byte push allocated %d bytes before it was refused, want ≤ 1 MiB", body.Len(), got)
	}
}

// TestSwapRejectsMismatchedGeometry: a bundle whose model disagrees with
// the server's frozen geometry, or whose interval calibration covers
// another event count than its model (regK), must be rejected at swap time
// — never installed to fail at the next frame.
func TestSwapRejectsMismatchedGeometry(t *testing.T) {
	srv, c, bw := newSwapServer(t, Config{})
	d := bw.ex.Dim()
	cases := []struct {
		name                   string
		dim, win, hor, k, regK int
		wantErr                string
	}{
		{"input dim", d + 1, 10, 200, 1, 0, "input dim"},
		{"window", d, 12, 200, 1, 0, "window"},
		{"horizon", d, 10, 100, 1, 0, "horizon"},
		{"regressor events", d, 10, 200, 1, 2, "regressor"},
	}
	for _, tc := range cases {
		m2, err := core.New(core.DefaultConfig(tc.dim, tc.win, tc.hor, tc.k))
		if err != nil {
			t.Fatal(err)
		}
		reg := bw.b.Regressor
		if tc.regK > 0 {
			res := make([][]float64, tc.regK)
			for i := range res {
				res[i] = []float64{1}
			}
			if reg, err = conformal.NewRegressor(tc.hor, res, res); err != nil {
				t.Fatal(err)
			}
		}
		bad := &strategy.Bundle{
			Model: m2, Classifier: bw.b.Classifier, Regressor: reg,
			Tau1: bw.b.Tau1, Tau2: bw.b.Tau2,
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
	if _, err := c.Predict(tctx, "c0", 0.9, 0.9); err != nil {
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
	want, err := c.Predict(tctx, "c0", 0.9, 0.9)
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
				r, err := c.Predict(tctx, "c0", 0.9, 0.9)
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
