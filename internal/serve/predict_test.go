package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/conformal"
	"eventhit/internal/core"
	"eventhit/internal/features"
	"eventhit/internal/strategy"
	"eventhit/internal/trace"
)

// TestPredictResponseEncoding: appendPredictResponse writes the bytes
// json.NewEncoder does, for every Decision shape the handler produces
// (relay, skip, deferred, detections, and the zero values omitempty drops)
// and for event names that need escaping.
func TestPredictResponseEncoding(t *testing.T) {
	names := []string{
		"Volleyball Spiking", `quote"back\slash`, "<script>&amp;", "tab\there\nnewline",
		"snow\u2603man \U0001F3D0", "line\u2028sep", "bad\xffutf8", "",
	}
	shapes := []Decision{
		{},
		{Relay: true, Start: 101, End: 140},
		{Relay: true, Start: 101, End: 140, Deferred: true},
		{Relay: true, Start: 7, End: 7, Detections: 3},
		{Relay: true, Start: -5, End: 0, Detections: -1},
		{Deferred: true},
	}
	var resps []PredictResponse
	for i := range shapes {
		r := PredictResponse{Anchor: 100 * i, HorizonEnd: 100*i + 200}
		for k, name := range names {
			d := shapes[(i+k)%len(shapes)]
			d.Event = name
			r.Decisions = append(r.Decisions, d)
		}
		resps = append(resps, r)
	}
	resps = append(resps,
		PredictResponse{Anchor: -1, HorizonEnd: 0, Decisions: []Decision{}},
		PredictResponse{Decisions: nil})
	for i := range resps {
		r := &resps[i]
		var escaped [][]byte
		for _, d := range r.Decisions {
			js, err := json.Marshal(d.Event)
			if err != nil {
				t.Fatal(err)
			}
			escaped = append(escaped, js)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(*r); err != nil {
			t.Fatal(err)
		}
		got := appendPredictResponse([]byte("kept:"), r, escaped)
		if string(got) != "kept:"+want.String() {
			t.Errorf("response %d:\n got %q\nwant %q", i, got, "kept:"+want.String())
		}
	}
}

// sessionServer is bareServer (or cfg, when given) with n extra sessions
// "c0".."c<n-1>" created in process.
func sessionServer(t testing.TB, cfg *Config, n int) *Server {
	t.Helper()
	var srv *Server
	if cfg == nil {
		srv, _ = bareServer(t)
	} else {
		var err error
		if srv, err = New(*cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		rec := httptest.NewRecorder()
		body := fmt.Sprintf(`{"id":"c%d"}`, i)
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader([]byte(body))))
		if rec.Code != http.StatusCreated {
			t.Fatalf("create session: %d %s", rec.Code, rec.Body)
		}
	}
	return srv
}

// pushFrames posts frames [lo, hi] of ex to a session, in process. Like
// predictSession it reports failure as an error, so camera goroutines can
// use it.
func pushFrames(srv *Server, id string, ex *features.Extractor, lo, hi int) error {
	for lo <= hi {
		n := min(hi-lo+1, MaxFramesPerPush)
		frames := make([][]float64, n)
		for i := range frames {
			frames[i] = ex.FrameVector(lo+i, nil)
		}
		body, err := json.Marshal(FramesRequest{Frames: frames})
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions/"+id+"/frames", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("push to %s: %d %s", id, rec.Code, rec.Body)
		}
		lo += n
	}
	return nil
}

// predictSession runs one in-process predict on a session.
func predictSession(srv *Server, id string) (PredictResponse, error) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions/"+id+"/predict", nil))
	var resp PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
		return resp, fmt.Errorf("predict on %s: %d %s (%v)", id, rec.Code, rec.Body, err)
	}
	return resp, nil
}

// pushTo is pushFrames for the test goroutine.
func pushTo(t testing.TB, srv *Server, id string, ex *features.Extractor, lo, hi int) {
	t.Helper()
	if err := pushFrames(srv, id, ex, lo, hi); err != nil {
		t.Fatal(err)
	}
}

// pushPredict walks one camera: for each anchor in turn, push its frames up
// to the anchor, then predict. It stops at the first failure.
func pushPredict(srv *Server, id string, ex *features.Extractor, next int, anchors []int) ([]PredictResponse, error) {
	var out []PredictResponse
	for _, a := range anchors {
		if err := pushFrames(srv, id, ex, next, a); err != nil {
			return out, err
		}
		next = a + 1
		r, err := predictSession(srv, id)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// predictCall returns a reusable in-process predict on a session whose
// window is full.
func predictCall(srv *Server, id string) func() {
	req := httptest.NewRequest("POST", "/v1/sessions/"+id+"/predict", nil)
	w := &discardWriter{h: http.Header{}}
	return func() { srv.ServeHTTP(w, req) }
}

// predictHandlerAllocCeiling bounds the allocations of one predict: the
// request wrapper and the mux's path match, what a bare predict measures.
// The response header's value is shared; the window, the activations, the
// decision and the response bytes all live in the pooled scratch.
const predictHandlerAllocCeiling = 2

// relayPredictAllocCeiling bounds a relay-owning predict whose relay the
// cache answers and whose labelled outcome feeds a warmed adaptation loop:
// one more than a bare predict, on the relay path, as measured.
const relayPredictAllocCeiling = 3

func TestPredictHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds buffers under the race detector")
	}
	bw := getBundle(t)
	// The relay-owning server relays through a result cache and runs the
	// adaptation loop; its window ends shortly before a true instance, so the
	// decision relays, the cache answers every repeat, and each predict feeds
	// the loop a labelled outcome. The warm-up wraps the loop's 1024-outcome
	// buffer.
	const bufferCap = 1024
	cc := cicache.DefaultConfig()
	ad := DefaultAdaptConfig()
	relay := &Config{
		Bundle: bw.b, EventNames: []string{"Volleyball Spiking"}, PerFrameUSD: 0.001,
		DefaultConfidence: 0.95, DefaultCoverage: 0.9,
		CI:    cloud.NewService(bw.st, cloud.RekognitionPricing(), cloud.DefaultLatency()),
		Cache: &cc, Adapt: &ad,
	}
	for _, tc := range []struct {
		name    string
		cfg     *Config
		lo, hi  int // stream frames pushed; the relay case keeps the CI aligned from frame 0
		ceiling float64
	}{
		{"bare", nil, 300, 309, predictHandlerAllocCeiling},
		{"relay+cache+adapt", relay, 0, bw.st.ByType[0][2].OI.Start - 20, relayPredictAllocCeiling},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := sessionServer(t, tc.cfg, 1)
			pushTo(t, srv, "c0", bw.ex, tc.lo, tc.hi)
			call := predictCall(srv, "c0")
			for i := 0; i <= bufferCap; i++ {
				call() // size the pooled scratch, fill the cache and the buffer
			}
			if tc.cfg != nil {
				if st := srv.snapshot(); st.RelayedOK == 0 || st.DriftObservations == 0 {
					t.Fatalf("the warm-up did not relay and label: %+v", st)
				}
			}
			if got := testing.AllocsPerRun(100, call); got > tc.ceiling {
				t.Errorf("%.1f allocs per predict, ceiling %v", got, tc.ceiling)
			}
		})
	}
}

func BenchmarkPredictHandler(b *testing.B) {
	bw := getBundle(b)
	const sessions = 16
	srv := sessionServer(b, nil, sessions)
	for i := 0; i < sessions; i++ {
		pushTo(b, srv, fmt.Sprintf("c%d", i), bw.ex, 300+i, 309+i)
	}
	b.Run("serial", func(b *testing.B) {
		call := predictCall(srv, "c0")
		call()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			call()
		}
	})
	// Every worker predicts on its own session: with no lock around
	// inference, ns/op falls with GOMAXPROCS.
	b.Run("parallel", func(b *testing.B) {
		var next atomic.Int64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			call := predictCall(srv, fmt.Sprintf("c%d", next.Add(1)%sessions))
			for pb.Next() {
				call()
			}
		})
	})
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("trace disk full") }

// TestTraceFailureKeepsStats: a trace writer that fails costs the request
// its response (500) but not the books — the relay the CI already served
// and billed is committed, so /v1/stats still agrees with the CI's meter.
// (The append used to sit inside the per-event loop and return before the
// commit.)
func TestTraceFailureKeepsStats(t *testing.T) {
	bw := getBundle(t)
	ci := cloud.NewService(bw.st, cloud.RekognitionPricing(), cloud.DefaultLatency())
	srv := sessionServer(t, &Config{
		Bundle:            bw.b,
		EventNames:        []string{"Volleyball Spiking"},
		PerFrameUSD:       0.001,
		DefaultConfidence: 0.95,
		DefaultCoverage:   0.9,
		CI:                ci,
		Trace:             trace.NewWriter(failingWriter{}),
	}, 1)
	// Up to shortly before a true instance, so the decision is a relay.
	pushTo(t, srv, "c0", bw.ex, 0, bw.st.ByType[0][2].OI.Start-20)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions/c0/predict", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("predict with a failing trace: %d %s, want 500", rec.Code, rec.Body)
	}
	u := ci.Usage()
	if u.Requests == 0 {
		t.Fatal("the decision did not relay; the test needs a billed CI call")
	}
	st := srv.snapshot()
	if st.Predictions != 1 || st.RelayedOK+st.DeferredRelays != u.Requests {
		t.Fatalf("stats predictions=%d relayedOK=%d deferred=%d, CI served %d requests",
			st.Predictions, st.RelayedOK, st.DeferredRelays, u.Requests)
	}
	if st.CISpentUSD != u.SpentUSD {
		t.Fatalf("stats say $%v spent, the CI billed $%v", st.CISpentUSD, u.SpentUSD)
	}
}

// narrowBundle is a bundle to swap in over the fixture's: its model is
// narrower, so scratch sized for the boot model is re-carved (and a
// session's input-projection ring started over) mid-run. It is untrained,
// and its classifier was calibrated on a single zero score, so it finds
// every event at every anchor: the two bundles disagree almost everywhere,
// and the narrow model's Θ is computed on every request.
func narrowBundle(t testing.TB, bw *Bundlewrap) *strategy.Bundle {
	t.Helper()
	mc := bw.b.Model.Config()
	mc.HiddenLSTM, mc.HiddenTrunk, mc.HiddenHead, mc.Seed = 7, 5, 9, 99
	other, err := core.New(mc)
	if err != nil {
		t.Fatal(err)
	}
	always, err := conformal.NewClassifier([][]float64{{0}}, [][]bool{{true}})
	if err != nil {
		t.Fatal(err)
	}
	return &strategy.Bundle{Model: other, Classifier: always, Regressor: bw.b.Regressor,
		Tau1: bw.b.Tau1, Tau2: bw.b.Tau2}
}

// TestConcurrentPredictMatchesSerial: cameras on distinct sessions push and
// predict concurrently against one shared model with no lock around
// inference (run with -race), and an admin swap to a bundle of different
// hidden widths lands mid-run. Every response must be what a serial replay
// answers at that anchor under the old bundle or the new one, and a session
// that has seen the new bundle never goes back. The subtest keeps the name
// it had beside the former quantized serving variant.
func TestConcurrentPredictMatchesSerial(t *testing.T) {
	t.Run("quantized=false", concurrentPredictMatchesSerial)
}

func concurrentPredictMatchesSerial(t *testing.T) {
	bw := getBundle(t)
	swapped := narrowBundle(t, bw)

	const cams, steps, first = 4, 120, 400
	cfg := Config{Bundle: bw.b, EventNames: []string{"Volleyball Spiking"}, PerFrameUSD: 0.001,
		DefaultConfidence: 0.9, DefaultCoverage: 0.9}
	srv := sessionServer(t, &cfg, cams)
	// A camera starts with its window one frame short of full, then
	// pushes one frame and predicts until more says stop.
	camera := func(srv *Server, id string, g int, more func(step int) bool) ([]PredictResponse, error) {
		next := first + 900*g
		if err := pushFrames(srv, id, bw.ex, next-srv.window+1, next-1); err != nil {
			return nil, err
		}
		var out []PredictResponse
		for more(len(out)) {
			r, err := pushPredict(srv, id, bw.ex, next, []int{next})
			if err != nil {
				return out, err
			}
			next++
			out = append(out, r...)
		}
		return out, nil
	}
	// The swap is released once half the planned predicts are done;
	// every camera then keeps going until it has predicted a few more
	// times with the swap installed, however the scheduler spread
	// the cameras out.
	var done, landed atomic.Int64
	halfway, finished := make(chan struct{}), make(chan struct{})
	got := make([][]PredictResponse, cams)
	var wg sync.WaitGroup
	for g := 0; g < cams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			after := 0
			var err error
			got[g], err = camera(srv, fmt.Sprintf("c%d", g), g, func(step int) bool {
				if step > 0 && done.Add(1) == cams*steps/2 {
					close(halfway)
				}
				if landed.Load() != 0 {
					after++
				}
				return step < steps || after <= 5
			})
			if err != nil {
				t.Error(err)
			}
		}(g)
	}
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-halfway:
	case <-finished:
		t.Fatal("the cameras stopped before the swap")
	}
	_, err := srv.Swap(swapped, swapOriginAdmin)
	landed.Store(1)
	if err != nil {
		t.Error(err)
	}
	<-finished
	if t.Failed() {
		return
	}

	swapCfg := cfg
	swapCfg.Bundle = swapped
	for g := 0; g < cams; g++ {
		n := len(got[g])
		var ref [2][]PredictResponse
		for i, c := range []Config{cfg, swapCfg} {
			ref[i], err = camera(sessionServer(t, &c, 1), "c0", g, func(step int) bool { return step < n })
			if err != nil {
				t.Fatal(err)
			}
		}
		before, after := ref[0], ref[1]
		onNew, differ := false, 0
		for i, r := range got[g] {
			isOld, isNew := reflect.DeepEqual(r, before[i]), reflect.DeepEqual(r, after[i])
			if !isOld && !isNew {
				t.Fatalf("camera %d step %d: %+v is neither the boot bundle's %+v nor the swapped one's %+v",
					g, i, r, before[i], after[i])
			}
			if !isOld {
				onNew = true
			}
			if onNew && !isNew {
				t.Fatalf("camera %d step %d: back on the boot bundle after the swap", g, i)
			}
			if isOld != isNew {
				differ++
			}
		}
		if !reflect.DeepEqual(got[g][n-1], after[n-1]) {
			t.Fatalf("camera %d: last response is not the swapped bundle's", g)
		}
		if differ == 0 {
			t.Fatalf("camera %d: the two bundles never disagree; the swap is invisible", g)
		}
	}
}

// TestSameSessionPredictMatchesSerial: two goroutines predict on ONE session
// while a third pushes its frames one at a time, so they share the
// session's decision scratch and its input-projection ring, meet it at
// anchors out of order, and have it started over by a swap to a bundle of
// other hidden widths mid-stream (run with -race). Every response must be
// what a fresh server answers at that anchor in a serial replay, under the
// boot bundle or the swapped one, and a predictor that has seen the new
// bundle never goes back. The subtest keeps the name it had beside the
// former quantized serving variant.
func TestSameSessionPredictMatchesSerial(t *testing.T) {
	t.Run("quantized=false", sameSessionPredictMatchesSerial)
}

func sameSessionPredictMatchesSerial(t *testing.T) {
	bw := getBundle(t)
	swapped := narrowBundle(t, bw)
	const predictors, perPhase = 2, 60
	// Walk a stretch with no event in sight, where the boot bundle skips and
	// the swapped one relays: which bundle answered shows in every response.
	first := -1
	for prevEnd, i := 0, 0; first < 0; i++ {
		in := bw.st.ByType[0][i]
		if in.PrecursorStart-prevEnd > 1500 {
			first = prevEnd + 300
		}
		prevEnd = in.OI.End
	}
	cfg := Config{Bundle: bw.b, EventNames: []string{"Volleyball Spiking"}, PerFrameUSD: 0.001,
		DefaultConfidence: 0.9, DefaultCoverage: 0.9}
	srv := sessionServer(t, &cfg, 1)
	// The session's frame i — and so anchor i — is the camera's base+i.
	base := first - srv.window + 1
	pushTo(t, srv, "c0", bw.ex, base, first)

	// The pusher adds a frame whenever a predict has been answered since
	// its last push, until perPhase predicts were answered before the
	// swap and as many after it.
	var answered, landedAt atomic.Int64
	tick := make(chan struct{}, 1) // holds at most the one pending wake-up
	halfway, stop, predictorsGone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var pushing, predicting sync.WaitGroup
	pushing.Add(1)
	go func() {
		defer pushing.Done()
		defer close(stop)
		released := false
		for a := first + 1; ; a++ {
			select {
			case <-tick:
			case <-predictorsGone:
				return
			}
			if err := pushFrames(srv, "c0", bw.ex, a, a); err != nil {
				t.Error(err)
				return
			}
			n, at := answered.Load(), landedAt.Load()
			if n >= perPhase && !released {
				close(halfway)
				released = true
			}
			if at > 0 && n >= at+perPhase {
				return
			}
		}
	}()
	got := make([][]PredictResponse, predictors)
	for p := range got {
		predicting.Add(1)
		go func(p int) {
			defer predicting.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, err := predictSession(srv, "c0")
				if err != nil {
					t.Error(err)
					return
				}
				got[p] = append(got[p], r)
				answered.Add(1)
				select {
				case tick <- struct{}{}:
				default:
				}
			}
		}(p)
	}
	go func() { predicting.Wait(); close(predictorsGone) }()
	select {
	case <-halfway:
		if _, err := srv.Swap(swapped, swapOriginAdmin); err != nil {
			t.Error(err)
		}
		landedAt.Store(max(answered.Load(), 1))
	case <-predictorsGone:
	}
	pushing.Wait()
	<-predictorsGone
	if t.Failed() {
		return
	}

	// Serial replay, one fresh server per bundle, at every anchor seen.
	last := 0
	for _, rs := range got {
		last = max(last, rs[len(rs)-1].Anchor)
	}
	swapCfg := cfg
	swapCfg.Bundle = swapped
	ref := make([]map[int]PredictResponse, 2)
	for i, c := range []Config{cfg, swapCfg} {
		replay := sessionServer(t, &c, 1)
		pushTo(t, replay, "c0", bw.ex, base, first-1)
		ref[i] = map[int]PredictResponse{}
		for a := first; a <= base+last; a++ {
			rs, err := pushPredict(replay, "c0", bw.ex, a, []int{a})
			if err != nil {
				t.Fatal(err)
			}
			ref[i][a-base] = rs[0]
		}
	}
	onlyOld, onlyNew := 0, 0
	for p, rs := range got {
		onNew := false
		for i, r := range rs {
			isOld, isNew := reflect.DeepEqual(r, ref[0][r.Anchor]), reflect.DeepEqual(r, ref[1][r.Anchor])
			switch {
			case !isOld && !isNew:
				t.Fatalf("predictor %d response %d: %+v is neither the boot bundle's %+v nor the swapped one's %+v",
					p, i, r, ref[0][r.Anchor], ref[1][r.Anchor])
			case onNew && !isNew:
				t.Fatalf("predictor %d response %d: back on the boot bundle after the swap", p, i)
			case !isOld:
				onNew = true
				onlyNew++
			case !isNew:
				onlyOld++
			}
		}
	}
	if onlyOld == 0 || onlyNew == 0 {
		t.Fatalf("%d responses only the boot bundle gives, %d only the swapped one: the swap must land mid-stream", onlyOld, onlyNew)
	}
}

// TestIdleSessionHoldsNoDecisionScratch: the decision scratch, and with it
// the input-projection ring, is a predicting session's: one that only
// ingests never allocates it.
func TestIdleSessionHoldsNoDecisionScratch(t *testing.T) {
	bw := getBundle(t)
	srv := sessionServer(t, nil, 2)
	for _, id := range []string{"c0", "c1"} {
		pushTo(t, srv, id, bw.ex, 300, 320)
	}
	if _, err := predictSession(srv, "c0"); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	predicting, idle := srv.sessions["c0"], srv.sessions["c1"]
	srv.mu.Unlock()
	if predicting.dec == nil {
		t.Error("the predicting session kept no decision scratch")
	}
	if idle.dec != nil {
		t.Error("a session that never predicted holds a decision scratch")
	}
}

// TestConcurrentRelayMatchesSerial is the relay-owning half: cameras on
// distinct sessions walk through an induced covariate shift concurrently,
// each session's adaptation loop cutting its own recalibration swap mid-run
// while the others keep predicting. A session's decisions depend on its own
// history only, so every camera's transcript — including the step its
// recalibration lands on — must equal that camera run alone on a fresh
// server.
func TestConcurrentRelayMatchesSerial(t *testing.T) {
	bw := getBundle(t)
	const cams, switchFrame, stride, anchors = 3, 3000, 50, 150
	clean := features.DefaultDetector()
	degraded := features.DetectorConfig{Jitter: clean.Jitter, MissRate: 0.9, FPRate: clean.FPRate, CueGain: 0.25}
	ex, err := features.NewDriftingExtractor(bw.st, []int{0}, clean, degraded, switchFrame, 1)
	if err != nil {
		t.Fatal(err)
	}
	newServer := func(sessions int) *Server {
		return sessionServer(t, &Config{
			Bundle: bw.b, EventNames: []string{"Volleyball Spiking"}, PerFrameUSD: 0.001,
			DefaultConfidence: 0.9, DefaultCoverage: 0.9,
			CI:    cloud.NewService(bw.st, cloud.RekognitionPricing(), cloud.DefaultLatency()),
			Adapt: &AdaptConfig{AuditRate: 1},
		}, sessions)
	}
	// Cameras follow the true stream from frame 0 (so relays and audits hit
	// real truth) and predict every stride frames, each at its own phase.
	walk := func(srv *Server, id string, g int) ([]PredictResponse, error) {
		as := make([]int, anchors)
		for a := range as {
			as[a] = 999 + 7*g + stride*a
		}
		return pushPredict(srv, id, ex, 0, as)
	}
	srv := newServer(cams)
	got := make([][]PredictResponse, cams)
	var wg sync.WaitGroup
	for g := 0; g < cams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var err error
			if got[g], err = walk(srv, fmt.Sprintf("c%d", g), g); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := srv.snapshot()
	if st.RecalibrationSwaps == 0 {
		t.Fatalf("no recalibration landed mid-run: %+v", st)
	}
	var serialSwaps int64
	for g := 0; g < cams; g++ {
		// The lone server's session is "c0" whatever the camera: ids do not
		// enter a decision.
		alone := newServer(1)
		want, err := walk(alone, "c0", g)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !reflect.DeepEqual(got[g][i], want[i]) {
				t.Fatalf("camera %d anchor %d: concurrent %+v, alone %+v", g, i, got[g][i], want[i])
			}
		}
		serialSwaps += alone.snapshot().RecalibrationSwaps
	}
	if st.RecalibrationSwaps != serialSwaps {
		t.Fatalf("%d recalibration swaps concurrently, %d serially", st.RecalibrationSwaps, serialSwaps)
	}
}
