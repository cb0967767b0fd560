package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// scan runs the ingest scanner on a fresh buffer.
func scan(body []byte, d, keep int) (vals []float64, rows int, ok bool) {
	var ib ingestBuf
	rows, ok = ib.scanFrames(body, d, keep)
	return ib.vals, rows, ok
}

// FuzzParseFrames is the differential check of the ingest scanner against
// encoding/json: whatever scanFrames accepts, json.Unmarshal must decode to
// the same rows, and the scanner's values must be the last min(rows, keep)
// of them, value for value by bit pattern. Across keep the property is
// two-sided: the scanner converts only the kept rows but checks all of
// them, so keep 1 and 2 accept exactly what keep MaxFramesPerPush (every
// row converted) accepts. Declining is always allowed — the handler then
// asks encoding/json; TestFramesHandlerCorpus and TestClientEncodingRoundTrip
// pin which bodies must NOT be declined.
func FuzzParseFrames(f *testing.F) {
	for _, d := range []int{1, 6} {
		for _, e := range frameCorpus(d) {
			f.Add([]byte(e.body), d)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, d int) {
		if d < 0 || d > 16 {
			return
		}
		_, _, ok := scan(body, d, MaxFramesPerPush)
		var req FramesRequest
		if ok {
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("scanner accepted %q, encoding/json says %v", body, err)
			}
			if len(req.Frames) < 1 || len(req.Frames) > MaxFramesPerPush {
				t.Fatalf("scanner accepted %d rows (%q)", len(req.Frames), body)
			}
		}
		for _, keep := range []int{1, 2, MaxFramesPerPush} {
			vals, rows, accepted := scan(body, d, keep)
			if accepted != ok {
				t.Fatalf("keep %d accepts %v, keep %d accepts %v (%q)", keep, accepted, MaxFramesPerPush, ok, body)
			}
			if !ok {
				continue
			}
			kept := req.Frames[len(req.Frames)-min(len(req.Frames), keep):]
			if rows != len(req.Frames) || len(vals) != len(kept)*d {
				t.Fatalf("keep %d: scanner %d rows, %d values at d=%d; encoding/json: %d rows (%q)", keep, rows, len(vals), d, len(req.Frames), body)
			}
			for i, fr := range kept {
				if len(fr) != d {
					t.Fatalf("scanner accepted a row of %d channels at d=%d (%q)", len(fr), d, body)
				}
				for j, want := range fr {
					got := vals[i*d+j]
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("keep %d, kept frame %d channel %d: scanner %x, encoding/json %x (%q)", keep, i, j, math.Float64bits(got), math.Float64bits(want), body)
					}
					if math.IsNaN(got) || math.IsInf(got, 0) {
						t.Fatalf("scanner accepted non-finite %v (%q)", got, body)
					}
				}
			}
		}
	})
}

// postFrames runs one frames POST to session "c0" in process and returns
// status and body.
func postFrames(srv *Server, body io.Reader) (int, string) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions/c0/frames", body))
	return rec.Code, rec.Body.String()
}

// TestFramesHandlerCorpus pins, for every corpus body, the status code and
// the exact response the handler gave before the scanner existed, and which
// of the two decoders the body takes at the server's window.
func TestFramesHandlerCorpus(t *testing.T) {
	bw := getBundle(t)
	d := bw.b.Model.Config().InputDim
	for _, e := range frameCorpus(d) {
		t.Run(e.name, func(t *testing.T) {
			srv := sessionServer(t, nil, 1)
			if _, _, ok := scan([]byte(e.body), d, srv.window); ok != e.fast {
				t.Errorf("scanFrames ok = %v, want %v", ok, e.fast)
			}
			want := fmt.Sprintf("{\"error\":%q}\n", e.err)
			if e.err == "" {
				want = fmt.Sprintf("{\"buffered\":%d,\"next\":%d}\n", min(e.rows, srv.window), e.rows)
			}
			if code, got := postFrames(srv, strings.NewReader(e.body)); code != e.code || got != want {
				t.Errorf("got %d %q, want %d %q", code, got, e.code, want)
			}
		})
	}
}

// TestFramesBodyLimit pins the one documented tightening: a body longer
// than MaxBodyBytes is 413 whether or not its first JSON value ends inside
// the limit (the streaming decoder used to accept the latter), and a body
// of exactly MaxBodyBytes still goes through.
func TestFramesBodyLimit(t *testing.T) {
	srv, bw := sessionServer(t, nil, 1), getBundle(t)
	d := bw.b.Model.Config().InputDim
	value := `{"frames":[` + corpusRow(d, "1") + `]}`
	const tooLarge = "{\"error\":\"invalid JSON: http: request body too large\"}\n"
	for _, tc := range []struct {
		name string
		body string
		code int
		want string
	}{
		{"padded-to-limit", value + strings.Repeat(" ", MaxBodyBytes-len(value)), 200, "{\"buffered\":1,\"next\":1}\n"},
		{"value-ends-before-limit", value + strings.Repeat(" ", MaxBodyBytes-len(value)+1), 413, tooLarge},
		{"value-crosses-limit", `{"frames":[[` + strings.Repeat(" ", MaxBodyBytes) + `1]]}`, 413, tooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code, got := postFrames(srv, strings.NewReader(tc.body)); code != tc.code || got != tc.want {
				t.Errorf("got %d %q, want %d %q", code, got, tc.code, tc.want)
			}
		})
	}
}

// TestIngestPoolCap: a request whose buffers grew past maxPooledIngestBytes
// must not park them in the pool.
func TestIngestPoolCap(t *testing.T) {
	srv, bw := sessionServer(t, nil, 1), getBundle(t)
	d := bw.b.Model.Config().InputDim
	big := `{"frames":[` + corpusRow(d, "1") + `]}` + strings.Repeat(" ", 2*maxPooledIngestBytes)
	if code, got := postFrames(srv, strings.NewReader(big)); code != 200 {
		t.Fatalf("big push: %d %s", code, got)
	}
	// A Put on this P is what the next Gets on this P see first, so an
	// oversized buffer that went back would surface here.
	for i := 0; i < 32; i++ {
		if ib := getIngestBuf(); ib.body.Cap() > maxPooledIngestBytes || cap(ib.vals)*8 > maxPooledIngestBytes || cap(ib.spans)*16 > maxPooledIngestBytes {
			t.Fatalf("pool handed out a buffer of %d body bytes, %d values, %d spans", ib.body.Cap(), cap(ib.vals), cap(ib.spans))
		}
	}
	for name, ib := range map[string]*ingestBuf{
		"value": {vals: make([]float64, 0, maxPooledIngestBytes/8+1)},
		"span":  {spans: make([]span, 0, maxPooledIngestBytes/16+1)},
	} {
		putIngestBuf(ib)
		if got := getIngestBuf(); got == ib {
			t.Fatalf("oversized %s buffer was pooled", name)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so allocation
// counts are the handler's own.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// framesCall returns a reusable in-process POST of n frames to session
// "c0", run by the route's handler as the owned loop runs it: the path
// value set, without the mux's match.
func framesCall(t testing.TB, srv *Server, bw *Bundlewrap, n int) func() {
	t.Helper()
	frames := make([][]float64, n)
	for i := range frames {
		frames[i] = bw.ex.FrameVector(1000+i, nil)
	}
	body, err := json.Marshal(FramesRequest{Frames: frames})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/v1/sessions/c0/frames", nil)
	req.SetPathValue("id", "c0")
	req.ContentLength = int64(len(body))
	rd := bytes.NewReader(body)
	req.Body = io.NopCloser(rd)
	w, h := &discardWriter{h: http.Header{}}, srv.owner.hot[hotSessionFrames]
	return func() {
		rd.Reset(body)
		h(w, req)
	}
}

// TestFramesResponseEncoding: appendFramesResponse writes the bytes
// json.NewEncoder does, trailing newline included.
func TestFramesResponseEncoding(t *testing.T) {
	for _, r := range []FramesResponse{{}, {Buffered: 25, Next: 500}, {Buffered: -1, Next: math.MaxInt}, {Buffered: math.MinInt, Next: 7}} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(r); err != nil {
			t.Fatal(err)
		}
		if got := appendFramesResponse([]byte("kept:"), r); string(got) != "kept:"+want.String() {
			t.Errorf("got %q, want %q", got, "kept:"+want.String())
		}
	}
}

// framesHandlerAllocCeiling bounds the allocations of one frames POST —
// the status-capturing writer; a body of known length within MaxBodyBytes
// takes no MaxBytesReader, the response header's value is shared and the
// acknowledgement is appended into the pooled buffer — and is the same at
// every batch size: nothing on the ingest path allocates per frame.
const framesHandlerAllocCeiling = 1

func TestFramesHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds buffers under the race detector")
	}
	srv, bw := sessionServer(t, nil, 1), getBundle(t)
	for _, n := range []int{1, 250, MaxFramesPerPush} {
		call := framesCall(t, srv, bw, n)
		call() // grow the pooled buffers to this batch size
		if got := testing.AllocsPerRun(50, call); got > framesHandlerAllocCeiling {
			t.Errorf("%d frames: %.1f allocs per push, ceiling %d", n, got, framesHandlerAllocCeiling)
		}
	}
}

func BenchmarkFramesHandler(b *testing.B) {
	srv, bw := sessionServer(b, nil, 1), getBundle(b)
	for _, n := range []int{1, 250, MaxFramesPerPush} {
		b.Run(fmt.Sprintf("frames=%d", n), func(b *testing.B) {
			call := framesCall(b, srv, bw, n)
			call()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/frame")
		})
	}
}

// TestRingMatchesSlidingWindow: for push sizes that straddle the window in
// every way, the acknowledgement carries min(total, window) and total — the
// semantics of the old slice-of-frames buffer — the ring holds exactly the
// last `window` frames of everything pushed, oldest first, and a predict
// decides on that window.
func TestRingMatchesSlidingWindow(t *testing.T) {
	srv, bw := sessionServer(t, nil, 1), getBundle(t)
	win, d := srv.window, srv.inputDim
	sizes := []int{1, win - 1, win, win + 1, MaxFramesPerPush}
	rng := rand.New(rand.NewSource(7))
	sess := srv.sessions["c0"]
	var all [][]float64 // only the tail matters; trimmed as it grows
	total := 0
	for step := 0; step < 60; step++ {
		n := sizes[rng.Intn(len(sizes))]
		frames := make([][]float64, n)
		for i := range frames {
			frames[i] = bw.ex.FrameVector((total+i)%bw.st.N, nil)
		}
		body, _ := json.Marshal(FramesRequest{Frames: frames})
		total += n
		all = append(all, frames...)
		if len(all) > win {
			all = all[len(all)-win:]
		}
		want := fmt.Sprintf("{\"buffered\":%d,\"next\":%d}\n", min(total, win), total)
		if code, got := postFrames(srv, bytes.NewReader(body)); code != 200 || got != want {
			t.Fatalf("step %d (push %d): got %d %q, want %q", step, n, code, got, want)
		}
		got := make([]float64, win*d)
		sess.ring.copyTo(got)
		got = got[:sess.ring.n*d]
		var flat []float64
		for _, f := range all {
			flat = append(flat, f...)
		}
		if !reflect.DeepEqual(got, flat) {
			t.Fatalf("step %d (push %d): ring holds %v, want %v", step, n, got, flat)
		}
		if total < win {
			continue
		}
		// The same window pushed into a fresh server must decide the same,
		// relative to its own anchor.
		ref := sessionServer(t, nil, 1)
		refBody, _ := json.Marshal(FramesRequest{Frames: all})
		if code, msg := postFrames(ref, bytes.NewReader(refBody)); code != 200 {
			t.Fatalf("reference push: %d %s", code, msg)
		}
		a, b := predictOnce(t, srv), predictOnce(t, ref)
		if a.Anchor != total-1 {
			t.Fatalf("step %d: anchor %d, want %d", step, a.Anchor, total-1)
		}
		if !reflect.DeepEqual(relative(a), relative(b)) {
			t.Fatalf("step %d: decisions %+v differ from a fresh server's %+v on the same window", step, a, b)
		}
	}
}

func predictOnce(t testing.TB, srv *Server) PredictResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions/c0/predict", nil))
	var resp PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != 200 || err != nil {
		t.Fatalf("predict: %d %s (%v)", rec.Code, rec.Body, err)
	}
	return resp
}

// relative rebases a response's frame indices on its anchor.
func relative(r PredictResponse) []Decision {
	out := append([]Decision(nil), r.Decisions...)
	for i := range out {
		if out[i].Relay {
			out[i].Start -= r.Anchor
			out[i].End -= r.Anchor
		}
	}
	return out
}

// TestConcurrentPushPredictSameSession hammers ONE session with pushes and
// predicts from several goroutines. The ring is overwritten in place, so a
// predict that read it after releasing mu would race with the next push —
// the race detector's half of the test (run with -race -count=10). The
// other half: every response must equal what a serial replay of the same
// frame prefix answers at that anchor, i.e. each predict saw exactly frames
// (anchor-window, anchor].
func TestConcurrentPushPredictSameSession(t *testing.T) {
	srv, bw := sessionServer(t, nil, 1), getBundle(t)
	win := srv.window
	const pushers, predictors, totalFrames = 3, 3, 600
	frameAt := func(i int) []float64 { return bw.ex.FrameVector(500+i, nil) }

	// Pushers take turns under order so "the frame prefix" is well defined;
	// predicts run against them unsynchronized.
	var order sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for {
				order.Lock()
				if next >= totalFrames {
					order.Unlock()
					return
				}
				n := min(1+rng.Intn(win+3), totalFrames-next)
				frames := make([][]float64, n)
				for i := range frames {
					frames[i] = frameAt(next + i)
				}
				next += n
				body, _ := json.Marshal(FramesRequest{Frames: frames})
				code, msg := postFrames(srv, bytes.NewReader(body))
				order.Unlock()
				if code != 200 {
					t.Errorf("push: %d %s", code, msg)
					return
				}
			}
		}(p)
	}
	done := make(chan struct{})
	var mu sync.Mutex
	seen := map[int]PredictResponse{}
	var pwg sync.WaitGroup
	for p := 0; p < predictors; p++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions/c0/predict", nil))
				if rec.Code == http.StatusConflict {
					continue // window not full yet
				}
				var resp PredictResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != 200 || err != nil {
					t.Errorf("predict: %d %s (%v)", rec.Code, rec.Body, err)
					return
				}
				mu.Lock()
				if prev, ok := seen[resp.Anchor]; ok && !reflect.DeepEqual(prev, resp) {
					t.Errorf("two predicts at anchor %d disagree: %+v vs %+v", resp.Anchor, prev, resp)
				}
				seen[resp.Anchor] = resp
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(done)
	pwg.Wait()
	seen[totalFrames-1] = predictOnce(t, srv)

	anchors := make([]int, 0, len(seen))
	for a := range seen {
		anchors = append(anchors, a)
	}
	sort.Ints(anchors)
	ref := sessionServer(t, nil, 1)
	pushed := 0
	for _, a := range anchors {
		for ; pushed <= a; pushed++ {
			body, _ := json.Marshal(FramesRequest{Frames: [][]float64{frameAt(pushed)}})
			if code, msg := postFrames(ref, bytes.NewReader(body)); code != 200 {
				t.Fatalf("replay push: %d %s", code, msg)
			}
		}
		if want := predictOnce(t, ref); !reflect.DeepEqual(seen[a], want) {
			t.Errorf("anchor %d: concurrent predict answered %+v, serial replay %+v", a, seen[a], want)
		}
	}
}

// TestClientEncodingRoundTrip: what Client.PushFrames puts on the wire is
// taken by the scanner (never the fallback) and comes back bit for bit.
func TestClientEncodingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const d = 5
	frames := [][]float64{
		{0, math.Copysign(0, -1), 1, -1, 0.1},
		{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e21, 1e-7},
		{1e20, 123456789012345680, 0.30000000000000004, 1.0 / 3, 2.2250738585072014e-308},
	}
	for len(frames) < 200 {
		row := make([]float64, d)
		for j := range row {
			for {
				row[j] = math.Float64frombits(rng.Uint64())
				if !math.IsNaN(row[j]) && !math.IsInf(row[j], 0) {
					break
				}
			}
		}
		frames = append(frames, row)
	}
	body, err := encodeFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	wire, _ := io.ReadAll(body)
	body.Close()
	vals, rows, ok := scan(wire, d, MaxFramesPerPush)
	if !ok || rows != len(frames) {
		t.Fatalf("scanner declined the client's own encoding (ok=%v rows=%d): %.120s", ok, rows, wire)
	}
	for i, f := range frames {
		for j, want := range f {
			if got := vals[i*d+j]; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("frame %d channel %d: sent %x, scanned %x", i, j, math.Float64bits(want), math.Float64bits(got))
			}
		}
	}
	// The bytes are encoding/json's, which reads them the same way: old
	// servers and the fallback see what the scanner sees.
	if want, _ := json.Marshal(FramesRequest{Frames: frames}); !bytes.Equal(wire, want) {
		t.Errorf("the client's encoding is not encoding/json's:\n%.200s\n%.200s", wire, want)
	}
	var req FramesRequest
	if err := json.Unmarshal(wire, &req); err != nil || !reflect.DeepEqual(req.Frames, frames) {
		t.Errorf("encoding/json disagrees with the client encoding: %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := encodeFrames([][]float64{{1, bad}}); err == nil || !strings.Contains(err.Error(), "frame 0 channel 1 is not finite") {
			t.Errorf("encodeFrames(%v) = %v, want a not-finite error", bad, err)
		}
	}
}

// TestClientEncodingTakesVectorFrontEnd: a client-encoded TA9 push, small
// value 3.0517578125e-05 included, is compact — the scanner's vector front
// end accepts it where the machine has one — and every value scans back to
// the bits sent.
func TestClientEncodingTakesVectorFrontEnd(t *testing.T) {
	const rows, d = 250, 12
	frames := ta9Frames(rows, d, 1)
	body, err := encodeFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	wire, _ := io.ReadAll(body)
	body.Close()
	if !bytes.Contains(wire, []byte(",0.000030517578125,")) {
		t.Fatalf("3.0517578125e-05 not written as a fraction: %.200s", wire)
	}
	for _, p := range scanPaths() {
		var ib ingestBuf
		if n, ok := p.scan(&ib, wire, d, rows); !ok || n != rows {
			t.Fatalf("%s: declined the client's TA9 body (ok=%v rows=%d)", p.name, ok, n)
		}
		for i, v := range ib.vals {
			if want := frames[i/d][i%d]; math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%s value %d: %x, sent %x", p.name, i, math.Float64bits(v), math.Float64bits(want))
			}
		}
	}
	if vectorScan {
		var ib ingestBuf
		if _, ok := ib.scanCompact(wire, d, rows); !ok {
			t.Fatal("the vector front end declined the client's TA9 body")
		}
	}
}

// TestClientPushReachesRing drives the client encoder through real HTTP
// into the session ring.
func TestClientPushReachesRing(t *testing.T) {
	srv, bw := sessionServer(t, nil, 1), getBundle(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	frames := relayWindow(bw)
	frames[0][0] = math.Copysign(0, -1)
	for i := 0; i < 3; i++ { // the pooled body buffer is reused across calls
		ack, err := c.PushFrames(tctx, "c0", frames)
		if err != nil || ack.Buffered != srv.window || ack.Next != (i+1)*len(frames) {
			t.Fatalf("push %d: %+v, %v", i, ack, err)
		}
	}
	got := make([]float64, srv.window*srv.inputDim)
	srv.sessions["c0"].ring.copyTo(got)
	for i, f := range frames {
		for j, want := range f {
			if g := got[i*srv.inputDim+j]; math.Float64bits(g) != math.Float64bits(want) {
				t.Errorf("frame %d channel %d: pushed %x, ring holds %x", i, j, math.Float64bits(want), math.Float64bits(g))
			}
		}
	}
	if _, err := c.PushFrames(tctx, "c0", [][]float64{{math.NaN()}}); err == nil {
		t.Error("NaN frame was sent")
	}
	if _, err := c.PushFrames(tctx, "nope", frames); err == nil || !strings.Contains(err.Error(), "unknown session") {
		t.Errorf("push to unknown session: %v", err)
	}
}

// TestRequestCounterSeries: the per-endpoint code="200" series is cached by
// instrument, other codes are resolved per request, and neither changes
// what /metrics prints — no sample exists before its first request.
func TestRequestCounterSeries(t *testing.T) {
	srv, bw := bareServer(t)
	scrape := func() string {
		var b strings.Builder
		if err := srv.metrics.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if body := scrape(); strings.Contains(body, "eventhit_http_requests_total{") {
		t.Fatalf("request counter sample before any request:\n%s", body)
	}
	srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(`{"id":"c0"}`)))
	predictOnce := func() {
		srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/sessions/c0/predict", nil))
	}
	predictOnce() // 409: window not full
	body, _ := json.Marshal(FramesRequest{Frames: relayWindow(bw)})
	for i := 0; i < 3; i++ {
		if code, msg := postFrames(srv, bytes.NewReader(body)); code != 200 {
			t.Fatalf("push: %d %s", code, msg)
		}
	}
	predictOnce()
	predictOnce()
	got := scrape()
	for _, want := range []string{
		`eventhit_http_requests_total{code="201",endpoint="/v1/sessions"} 1`,
		`eventhit_http_requests_total{code="200",endpoint="/v1/sessions/frames"} 3`,
		`eventhit_http_requests_total{code="200",endpoint="/v1/sessions/predict"} 2`,
		`eventhit_http_requests_total{code="409",endpoint="/v1/sessions/predict"} 1`,
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if n := strings.Count(got, "eventhit_http_requests_total{"); n != 4 {
		t.Errorf("%d request counter samples, want 4:\n%s", n, got)
	}
}

// The byte walk the word-at-a-time scanner replaced, kept as its oracle:
// scanFramesByteWalk is the former scanFrames, one byte at a time through
// at and isDigit, and byteWalkNumber the former scanNumber. Same accepted
// language, same kept rows, same conversion.

func byteWalkNumber(b []byte, i int) (end, mag int) {
	start := i
	if at(b, i) == '-' {
		i++
	}
	switch c := at(b, i); {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		digits := i
		for i++; isDigit(at(b, i)); i++ {
		}
		mag = i - digits
	default:
		return start, 0
	}
	if at(b, i) == '.' {
		i++
		if !isDigit(at(b, i)) {
			return start, 0
		}
		for i++; isDigit(at(b, i)); i++ {
		}
	}
	if c := at(b, i); c == 'e' || c == 'E' {
		i++
		sign := 1
		if c := at(b, i); c == '+' || c == '-' {
			if c == '-' {
				sign = -1
			}
			i++
		}
		if !isDigit(at(b, i)) {
			return start, 0
		}
		e := 0
		for ; isDigit(at(b, i)); i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		mag += sign * e
	}
	return i, mag
}

func (ib *ingestBuf) scanFramesByteWalk(b []byte, d, keep int) (rows int, ok bool) {
	ib.vals, ib.spans = ib.vals[:0], ib.spans[:0]
	i := skipSpace(b, 0)
	if at(b, i) != '{' {
		return 0, false
	}
	i = skipSpace(b, i+1)
	if !bytes.HasPrefix(b[i:], framesKey) {
		return 0, false
	}
	i = skipSpace(b, i+len(framesKey))
	if at(b, i) != ':' {
		return 0, false
	}
	i = skipSpace(b, i+1)
	if at(b, i) != '[' {
		return 0, false
	}
	i = skipSpace(b, i+1)
	next := 0
	for {
		if at(b, i) != '[' || rows == MaxFramesPerPush {
			return 0, false
		}
		i = skipSpace(b, i+1)
		if rows < keep {
			ib.spans = append(ib.spans, make([]span, d)...)
		}
		row := ib.spans[next : next+d]
		for j := range row {
			if j > 0 {
				if at(b, i) != ',' {
					return 0, false
				}
				i = skipSpace(b, i+1)
			}
			end, mag := byteWalkNumber(b, i)
			if end == i {
				return 0, false
			}
			if mag > maxFiniteMag {
				if _, err := strconv.ParseFloat(string(b[i:end]), 64); err != nil {
					return 0, false
				}
			}
			row[j] = span{i, end}
			i = skipSpace(b, end)
		}
		if at(b, i) != ']' {
			return 0, false
		}
		rows++
		if next += d; next == keep*d {
			next = 0
		}
		i = skipSpace(b, i+1)
		if at(b, i) == ',' {
			i = skipSpace(b, i+1)
			continue
		}
		break
	}
	if at(b, i) != ']' {
		return 0, false
	}
	i = skipSpace(b, i+1)
	if at(b, i) != '}' {
		return 0, false
	}
	if skipSpace(b, i+1) != len(b) {
		return 0, false
	}
	for _, part := range [2][]span{ib.spans[next:], ib.spans[:next]} {
		for _, s := range part {
			v, err := strconv.ParseFloat(string(b[s.lo:s.hi]), 64)
			if err != nil {
				return 0, false
			}
			ib.vals = append(ib.vals, v)
		}
	}
	return rows, true
}

// ta9Body renders rows frames of d channels as bench/ sends them
// (encoding/json, which writes an exponent only below 1e-6) with the value
// mix of a TA9 push: about a third exact zeros, a sixth exact ones, the
// rest fractions in [0, 1) of 16–18 characters, and one small value,
// 3.0517578125e-05, written as a 17-digit fraction.
func ta9Body(rows, d int, seed int64) []byte {
	b, err := json.Marshal(FramesRequest{Frames: ta9Frames(rows, d, seed)})
	if err != nil {
		panic(err)
	}
	return b
}

// ta9Frames are the frames ta9Body renders.
func ta9Frames(rows, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	frames := make([][]float64, rows)
	for i := range frames {
		frames[i] = make([]float64, d)
		for j := range frames[i] {
			switch u := rng.Float64(); {
			case u < 0.33:
			case u < 0.48:
				frames[i][j] = 1
			default:
				frames[i][j] = rng.Float64()
			}
		}
	}
	frames[rows/2][d/2] = 3.0517578125e-05
	return frames
}

// FuzzScanMatchesByteWalk is the differential check of both scanner paths
// — the word-at-a-time walk alone, and scanFrames with its vector front end
// when the machine has one — against the byte walk the word walk replaced:
// at every keep, each must accept and decline the same bodies, count the
// same rows and convert the same values, bit for bit. The seeds put every
// token start and the body's end at each residue mod 8 (the walk reads
// 8-byte words), and carry the number shapes the fast paths take next to
// the ones they must leave to the per-token walk.
func FuzzScanMatchesByteWalk(f *testing.F) {
	f.Add(ta9Body(250, 12, 1), 12)
	f.Add(ta9Body(3, 4, 2), 4)
	tokens := []string{
		"0", "1", "7", "-0", "-1", "1e999", "-1e999", "0.00000000001e315", "1e-999", "01", "-01", "1.", ".5", "-.5", "1e", "1e+",
		"1E+2", "1e-07", "0.5", "12.5", "0.1234567", "0.12345678", "0.123456789", "0.1234567890123456", "0.12345678901234567",
		"0.123456789012345678901", "0.1234567890123456789012", "1234567", "12345678", "123456789", "1234567890123456",
		"12345678901234567", "123456789012345678901234567", "0.6046602879796196", "3.0517578125e-05", "1.7976931348623159e308",
		"0.12345\x80678901234", "0.1234567890\x001234", "1\x80", "\xff", "0.\x0012345678901234", "0..1234567890123456",
		"0.12345678901234.5", "00.123456789012345", "0.123456789012345e", "0.12345678901234567e-3",
	}
	for _, tok := range tokens {
		for lead := 0; lead < 8; lead++ {
			pad := strings.Repeat(" ", lead)
			body := pad + `{"frames":[[` + tok + `,1,` + tok + `],[0,` + tok + `,0.12345678901234567]]}`
			f.Add([]byte(body), 3)
			f.Add([]byte(pad+`{"frames":[[`+tok+`]]}`+pad), 1)
		}
		f.Add([]byte("{ \"frames\" : [ [ "+tok+" , 0.12345678901234567 ] , [ 1 ,\t"+tok+"\n] ] }"), 2)
		f.Add([]byte(`{"frames":[[`+tok+`,`+tok+`],[`+tok+`,`+tok+`],[`+tok+`,`+tok+`]]}`), 2)
	}
	f.Fuzz(func(t *testing.T, body []byte, d int) {
		if d < 0 || d > 16 {
			return
		}
		for _, keep := range []int{1, 2, 25, MaxFramesPerPush} {
			var walk ingestBuf
			wantRows, wantOK := walk.scanFramesByteWalk(body, d, keep)
			for _, p := range scanPaths() {
				var ib ingestBuf
				rows, ok := p.scan(&ib, body, d, keep)
				if ok != wantOK || rows != wantRows || len(ib.vals) != len(walk.vals) {
					t.Fatalf("keep %d: %s (%d rows, %v, %d values), byte walk (%d rows, %v, %d values) on %q",
						keep, p.name, rows, ok, len(ib.vals), wantRows, wantOK, len(walk.vals), body)
				}
				for k, v := range ib.vals {
					if math.Float64bits(v) != math.Float64bits(walk.vals[k]) {
						t.Fatalf("keep %d, value %d: %s %x, byte walk %x (%q)", keep, k, p.name, math.Float64bits(v), math.Float64bits(walk.vals[k]), body)
					}
				}
			}
		}
	})
}

// TestScanVectorMatchesWalk holds scanFrames — with its vector front end
// where the machine runs one — and the word walk to the byte walk on bodies
// aimed at the front end's block seams and mask rules: every accepted
// token shape, "0.", "],[" and "[[" at each offset of a 64-byte block;
// rows and kept rows at each offset of the check's and the cut's block and
// batch grids; bodies of 0 to 200 bytes; a byte ≥ 0x80, NUL, whitespace,
// '-' or 'e' at every position; tokens the front end must leave to the
// walk ("1.5", "01", "0.", ".5"); MaxFramesPerPush rows and one more;
// d = 0; and seeded random edits of compact bodies. Each body is read at
// d-1, d and d+1 and at keep 1, 2, 25, rows, rows+1 and MaxFramesPerPush,
// and must give the same rows, ok and values (by bit pattern) on every
// path. Bodies marked compact must also be taken by the front end itself,
// so the comparison is not vacuous.
func TestScanVectorMatchesWalk(t *testing.T) {
	type probe struct {
		body    string
		d       int
		compact bool
	}
	var probes []probe
	add := func(body string, d int, compact bool) { probes = append(probes, probe{body, d, compact}) }
	frames := func(rows ...string) string { return `{"frames":[` + strings.Join(rows, ",") + `]}` }

	// Seams: a lead fraction of n digits slides what follows it across
	// every offset of a block.
	good := []string{"0", "1", "5", "9", "0.5", "0.0", "0.05", "0.1234567", "0.12345678", "0.12345678901234567",
		"0.123456789012345678901234", "0.00000000000000000000001"}
	bad := []string{"-1", "-0", "1e5", "0.5e-3", "1E2", "1.5", "01", "00", "12", "0.", ".5", "0..5", "0.5.5", "0.5.",
		"", "[1]", "0,", " 1", "1 ", "\x80", "\x001", "1\xff", "\t1", "+1", "0x1"}
	for n := 1; n <= 64+16; n++ {
		lead := "0." + strings.Repeat("7", n)
		for _, tok := range good {
			add(frames("["+lead+","+tok+",1]", "["+tok+","+tok+",0.5]"), 3, true)
		}
		for _, tok := range bad {
			add(frames("["+lead+","+tok+",1]", "["+tok+","+tok+",0.5]"), 3, false)
		}
		add(frames("["+lead+"]", "[1]", "[0]"), 1, true)
		for _, seam := range []string{"],[[", "]],[", "][", "],,[", ",],[", "],[,", "],[]", "[[", "]]", "], [", "] ,["} {
			add(`{"frames":[[`+lead+seam+`1]]}`, 1, false)
		}
	}
	// Block and batch seams. The check reads 62-byte blocks from the first
	// row on; the cut, 64-byte blocks in batches of 16 (1 024 bytes) back
	// from the end, the last one zero-padded. A lead token of n digits
	// slides 1-channel bodies across both grids: 60 short rows of every
	// accepted token shape over 1 100 offsets, so every ']', ",[" and row
	// start meets each seam of both grids and the padded last block, and
	// rows end on every byte of a block; and 40-byte rows over 130 offsets,
	// whose 25th row from the end starts 999 bytes before it, where the
	// cut's batch boundary sweeps past it. Every body is read at keep 1, 2,
	// 25, rows, rows+1 and MaxFramesPerPush below.
	var short, wide []string
	for i := range 60 {
		short = append(short, "["+good[i%len(good)]+"]")
	}
	for i := range 30 {
		wide = append(wide, "[0."+strconv.Itoa(1e9+i)+strings.Repeat("5", 25)+"]")
	}
	for n := 1; n <= 1100; n++ {
		lead := "[0." + strings.Repeat("3", n) + "]"
		add(frames(append([]string{lead}, short...)...), 1, true)
		if n <= 130 {
			add(frames(append([]string{lead}, wide...)...), 1, true)
		}
	}
	// Structure the rules must refuse, in a row no keep of 1 converts.
	for _, row := range []string{"[1,,]", "[,1,1]", "[1,1,]", "[]", "[1,1]", "[1,1,1,1]", "[1,1.1]", "[1,01,1]", "[[1,1,1]]"} {
		add(frames(row, "[1,1,1]"), 3, false)
		add(frames("[0.5,1,0]", row, "[1,1,1]"), 3, false)
	}
	// Lengths 0–200: every prefix of a compact body, and compact bodies of
	// every length a one-row or a [1]-row body can have.
	long := frames("[0.25,1,0.123456789]", "[0,0.5,1]", "[1,1,1]", "[0.999,0.001,0]", "[0.3333333333333333,0.6666666666666666,0]", "[1,0,1]", "[0.5,0.5,0.5]", "[0.75,0.125,0.0625]")
	for n := 0; n <= 200 && n <= len(long); n++ {
		add(long[:n], 3, n == len(long))
	}
	for n := 1; n <= 200-17; n++ {
		add(frames("[0."+strings.Repeat("3", n)+"]"), 1, true)
		add(frames(strings.Repeat("[1],", n/4)+"[0."+strings.Repeat("6", n%4+1)+"]"), 1, true)
	}
	// One byte replaced, or one byte inserted, at every position of a
	// body of fractions and of one of single digits.
	const edits = "\x80\xffA\x00 \n\t\r-e+,[].05"
	for _, p := range []probe{{string(ta9Body(1, 12, 5)), 12, false}, {frames("[1,0,1]", "[0,0,1]", "[1,1,1]"), 3, false}} {
		for i := 0; i <= len(p.body); i++ {
			for j := range len(edits) {
				c := edits[j : j+1]
				if i < len(p.body) {
					add(p.body[:i]+c+p.body[i+1:], p.d, false)
				}
				add(p.body[:i]+c+p.body[i:], p.d, false)
			}
		}
	}
	// The row limit, and d = 0.
	add(frames(strings.Repeat("[1],", MaxFramesPerPush-1)+"[0]"), 1, true)
	add(frames(strings.Repeat("[1],", MaxFramesPerPush)+"[0]"), 1, false)
	add(frames(strings.Repeat("[0.5,1],", MaxFramesPerPush-1)+"[0,0.5]"), 2, true)
	add(frames(strings.Repeat("[0.5,1],", MaxFramesPerPush)+"[0,0.5]"), 2, false)
	add(`{"frames":[[]]}`, 0, false)
	add(`{"frames":[[],[]]}`, 0, false)
	// Random edits of compact bodies, mostly in the shapes' own alphabet.
	rng := rand.New(rand.NewSource(48))
	const alphabet = "0123456789,[].,[]0 A-e\x80"
	for k := 0; k < 3000; k++ {
		b := []byte(frames("[0.5,1,0.25]", "[0,0.75,1]", "[1,0,0.5]"))
		if k%3 == 0 {
			b = ta9Body(1+rng.Intn(4), 3, int64(k))
		}
		for e := 0; e <= rng.Intn(3); e++ {
			i, c := rng.Intn(len(b)), alphabet[rng.Intn(len(alphabet))]
			switch rng.Intn(3) {
			case 0:
				b[i] = c
			case 1:
				b = append(b[:i], b[i+1:]...)
			default:
				b = append(b[:i], append([]byte{c}, b[i:]...)...)
			}
		}
		add(string(b), 3, false)
	}

	paths := scanPaths()
	for _, p := range probes {
		body := []byte(p.body)
		for _, d := range []int{p.d - 1, p.d, p.d + 1} {
			if d < 0 {
				continue
			}
			var all ingestBuf
			rows, _ := all.scanFramesByteWalk(body, d, 1)
			for _, keep := range []int{1, 2, 25, rows, rows + 1, MaxFramesPerPush} {
				if keep < 1 {
					continue
				}
				var ref ingestBuf
				wantRows, wantOK := ref.scanFramesByteWalk(body, d, keep)
				for _, path := range paths {
					var ib ingestBuf
					rows, ok := path.scan(&ib, body, d, keep)
					if rows != wantRows || ok != wantOK || len(ib.vals) != len(ref.vals) {
						t.Fatalf("d %d keep %d: %s (%d rows, %v, %d values), byte walk (%d rows, %v, %d values) on %q",
							d, keep, path.name, rows, ok, len(ib.vals), wantRows, wantOK, len(ref.vals), body)
					}
					for i, v := range ib.vals {
						if math.Float64bits(v) != math.Float64bits(ref.vals[i]) {
							t.Fatalf("d %d keep %d value %d: %s %x, byte walk %x on %q", d, keep, i, path.name, math.Float64bits(v), math.Float64bits(ref.vals[i]), body)
						}
					}
				}
				if p.compact && d == p.d && vectorScan {
					var ib ingestBuf
					if _, ok := ib.scanCompact(body, d, keep); !ok {
						t.Fatalf("d %d keep %d: the vector front end declined compact %q", d, keep, body)
					}
				}
			}
		}
	}
}

// scanPath is one way through the scanner.
type scanPath struct {
	name string
	scan func(*ingestBuf, []byte, int, int) (int, bool)
}

// scanPaths are the word walk and, on a machine that runs it, scanFrames
// with its vector front end.
func scanPaths() []scanPath {
	paths := []scanPath{{"words", (*ingestBuf).scanWords}}
	if vectorScan {
		paths = append(paths, scanPath{"vector", (*ingestBuf).scanFrames})
	}
	return paths
}

var scanSink float64

// BenchmarkScanFrames times the scanner alone — the byte walk, the word
// walk and, on a machine that runs it, scanFrames with its vector front end
// — on a one-frame TA9 push (what the predict workloads send), on a
// TA9-shaped push (250 rows of 12, a 25-frame window), on the same push
// with every row kept (so the conversion's share shows) and on a long push
// of narrow frames (4 096 rows of 6, the same window).
func BenchmarkScanFrames(b *testing.B) {
	for _, shape := range []struct {
		name          string
		rows, d, keep int
	}{
		{"ta9-d12x1", 1, 12, 25},
		{"ta9-d12x250", 250, 12, 25},
		{"ta9-d12x250-keepall", 250, 12, MaxFramesPerPush},
		{"d6x4096", MaxFramesPerPush, 6, 25},
	} {
		// Distinct bodies in turn: a branch predictor that met one body
		// thousands of times would have learnt its sequence of number
		// shapes, which no live stream repeats.
		bodies := make([][]byte, 16)
		size := 0
		for k := range bodies {
			bodies[k] = ta9Body(shape.rows, shape.d, int64(k+1))
			size += len(bodies[k])
		}
		for _, p := range append([]scanPath{{"bytewalk", (*ingestBuf).scanFramesByteWalk}}, scanPaths()...) {
			b.Run(shape.name+"/"+p.name, func(b *testing.B) {
				var ib ingestBuf
				for _, body := range bodies {
					if rows, ok := p.scan(&ib, body, shape.d, shape.keep); !ok || rows != shape.rows {
						b.Fatalf("declined its own body (%d rows, %v)", rows, ok)
					}
				}
				b.SetBytes(int64(size / len(bodies)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.scan(&ib, bodies[i%len(bodies)], shape.d, shape.keep)
				}
				scanSink = ib.vals[0]
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(shape.rows*shape.d), "ns/number")
			})
		}
	}
}
