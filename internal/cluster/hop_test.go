package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eventhit/internal/serve"
)

// okWorker answers every request 200 with a small JSON body.
var okWorker = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	io.Copy(io.Discard, r.Body)
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, `{"anchor":9,"horizonEnd":209,"decisions":[]}`)
})

// serveFront runs one request through the front's handler in process.
func serveFront(f *Front, r *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, r)
	return rec
}

func predictReq(session string) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/v1/sessions/"+session+"/predict", nil)
}

// TestFrontProxyMatchesDirect: a request through the front and the same
// request straight to a twin worker in the same state get equal status,
// Content-Type and body bytes — the front adds routing, not semantics. The
// one request that cannot be the same is a create without an ID: the front
// assigns it, so the twin gets the create the front sends on.
func TestFrontProxyMatchesDirect(t *testing.T) {
	bw := getClusterBundle(t)
	start := func(id string) string {
		w, err := NewWorker(WorkerConfig{ID: id, Serve: baseServeConfig(bw)})
		if err != nil {
			t.Fatal(err)
		}
		url, err := w.Start("127.0.0.1:0", "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		return url
	}
	behind, twin := start("w0"), start("twin")
	front, err := NewFront(FrontConfig{Workers: []WorkerRef{{ID: "w0", URL: behind}}})
	if err != nil {
		t.Fatal(err)
	}
	frontTS := httptest.NewServer(front)
	defer frontTS.Close()

	frames := func(lo, n int) string {
		req := serve.FramesRequest{}
		for i := 0; i < n; i++ {
			req.Frames = append(req.Frames, bw.ex.FrameVector(lo+i, nil))
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	type reply struct {
		code int
		ct   string
		body string
	}
	send := func(base, method, path, body string, chunked bool) reply {
		var rd io.Reader = strings.NewReader(body)
		if chunked {
			rd = struct{ io.Reader }{rd} // hides the length: the client sends it chunked
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		if chunked && req.ContentLength != 0 {
			t.Fatalf("%s: body length visible, would not be sent chunked", path)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return reply{resp.StatusCode, resp.Header.Get("Content-Type"), string(b)}
	}
	for _, c := range []struct {
		name, method, path, body string
		twinBody                 string // when the twin gets another body than the front
		chunked                  bool
		want                     int
	}{
		{"create with id", http.MethodPost, "/v1/sessions", `{"id":"cam-1"}`, "", false, http.StatusCreated},
		{"create without id", http.MethodPost, "/v1/sessions", `{}`, `{"id":"s-000001"}`, false, http.StatusCreated},
		{"push", http.MethodPost, "/v1/sessions/cam-1/frames", frames(1000, 6), "", false, http.StatusOK},
		{"push chunked", http.MethodPost, "/v1/sessions/cam-1/frames", frames(1006, 6), "", true, http.StatusOK},
		{"malformed JSON", http.MethodPost, "/v1/sessions/cam-1/frames", `{"frames":[[0.5,`, "", false, http.StatusBadRequest},
		{"oversize push", http.MethodPost, "/v1/sessions/cam-1/frames", strings.Repeat(" ", 2*serve.MaxBodyBytes), "", false, http.StatusRequestEntityTooLarge},
		{"unknown session", http.MethodPost, "/v1/sessions/nope/predict", "", "", false, http.StatusNotFound},
		{"predict with query", http.MethodPost, "/v1/sessions/cam-1/predict?confidence=0.95&coverage=0.8", "", "", false, http.StatusOK},
		{"delete", http.MethodDelete, "/v1/sessions/cam-1", "", "", false, http.StatusNoContent},
		{"delete again", http.MethodDelete, "/v1/sessions/cam-1", "", "", false, http.StatusNotFound},
	} {
		twinBody := c.body
		if c.twinBody != "" {
			twinBody = c.twinBody
		}
		got := send(frontTS.URL, c.method, c.path, c.body, c.chunked)
		want := send(twin, c.method, c.path, twinBody, c.chunked)
		if want.code != c.want {
			t.Fatalf("%s: twin answered %d, fixture expects %d: %s", c.name, want.code, c.want, want.body)
		}
		if got != want {
			t.Errorf("%s: through the front %d %q %.200q, direct %d %q %.200q",
				c.name, got.code, got.ct, got.body, want.code, want.ct, want.body)
		}
	}
}

// TestFrontHopFailures: the ways an exchange with a worker ends early.
func TestFrontHopFailures(t *testing.T) {
	t.Run("hung worker", func(t *testing.T) {
		var dials atomic.Int32
		stub := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Query().Has("hang") {
				<-r.Context().Done() // until the front drops the connection
				return
			}
			okWorker(w, r)
		}))
		stub.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				dials.Add(1)
			}
		}
		stub.Start()
		defer stub.Close()
		const timeout = 200 * time.Millisecond
		front, err := NewFront(FrontConfig{Workers: []WorkerRef{{ID: "w0", URL: stub.URL}}})
		if err != nil {
			t.Fatal(err)
		}
		front.workers["w0"].hop.timeout = timeout
		begin := time.Now()
		rec := serveFront(front, httptest.NewRequest(http.MethodPost, "/v1/sessions/cam-1/predict?hang=1", nil))
		if took := time.Since(begin); rec.Code != http.StatusBadGateway || took < timeout || took > timeout+2*time.Second {
			t.Fatalf("hung worker: %d after %v, want 502 after the %v timeout: %s", rec.Code, took, timeout, rec.Body)
		}
		if rec := serveFront(front, predictReq("cam-1")); rec.Code != http.StatusOK {
			t.Fatalf("after the hang: %d %s", rec.Code, rec.Body)
		}
		if n := dials.Load(); n != 2 {
			t.Fatalf("worker saw %d connections, want 2: the timed-out one must not be reused", n)
		}
	})

	t.Run("cancelled client", func(t *testing.T) {
		entered, gone := make(chan struct{}), make(chan struct{})
		stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			close(entered)
			<-r.Context().Done()
			close(gone)
		}))
		defer stub.Close()
		front, err := NewFront(FrontConfig{Workers: []WorkerRef{{ID: "w0", URL: stub.URL}}})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		codes := make(chan int, 1)
		go func() { codes <- serveFront(front, predictReq("cam-1").WithContext(ctx)).Code }()
		<-entered
		cancel()
		select {
		case code := <-codes:
			if code != http.StatusBadGateway {
				t.Errorf("cancelled exchange answered %d, want 502", code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the exchange outlived its cancelled client")
		}
		select {
		case <-gone:
		case <-time.After(5 * time.Second):
			t.Fatal("the worker never saw the front drop the exchange")
		}
	})

	// A worker that declares 100 body bytes and closes after 12: the front
	// answers 502, never the 12 bytes under the worker's status. Both heads
	// are tried, one the strict reply parser takes and one it leaves to
	// http.ReadResponse.
	for name, head := range map[string]string{
		"reply cut short":             "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nDate: Mon, 19 Oct 2026 10:00:00 GMT\r\nContent-Length: 100\r\n\r\n",
		"reply cut short, other head": "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n",
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				for {
					nc, err := ln.Accept()
					if err != nil {
						return
					}
					if _, err := http.ReadRequest(bufio.NewReader(nc)); err == nil {
						io.WriteString(nc, head+`{"anchor":9,`)
					}
					nc.Close()
				}
			}()
			front, err := NewFront(FrontConfig{Workers: []WorkerRef{{ID: "w0", URL: "http://" + ln.Addr().String()}}})
			if err != nil {
				t.Fatal(err)
			}
			if rec := serveFront(front, predictReq("cam-1")); rec.Code != http.StatusBadGateway {
				t.Fatalf("a cut-short reply answered %d %q, want 502", rec.Code, rec.Body)
			}
		})
	}

	t.Run("worker restarted on the same address", func(t *testing.T) {
		if !peeksIdleConns {
			t.Skip("no socket peek on this system: an idle connection is trusted for a second")
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		first := &http.Server{Handler: okWorker}
		go first.Serve(ln)
		front, err := NewFront(FrontConfig{Workers: []WorkerRef{{ID: "w0", URL: "http://" + addr}}})
		if err != nil {
			t.Fatal(err)
		}
		if rec := serveFront(front, predictReq("cam-1")); rec.Code != http.StatusOK {
			t.Fatalf("first worker: %d %s", rec.Code, rec.Body)
		}
		first.Close() // also closes the connection the front keeps idle
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		second := &http.Server{Handler: okWorker}
		go second.Serve(ln)
		defer second.Close()
		if rec := serveFront(front, predictReq("cam-1")); rec.Code != http.StatusOK {
			t.Fatalf("restarted worker: %d %s", rec.Code, rec.Body)
		}
	})
}

// TestFrontURLs: the hop speaks plain HTTP/1.1 to the root of one address,
// so NewFront refuses any other form of a worker or coordinator URL.
func TestFrontURLs(t *testing.T) {
	for _, c := range []struct {
		worker, coord string
		ok            bool
	}{
		{"http://127.0.0.1:1", "", true},
		{"http://[::1]:1", "http://localhost:2", true},
		{"https://127.0.0.1:1", "", false},
		{"http://127.0.0.1:1/", "", false},
		{"http://127.0.0.1:1/base", "", false},
		{"http://127.0.0.1:1?x=1", "", false},
		{"http://localhost", "", false},
		{"127.0.0.1:1", "", false},
		{"http://127.0.0.1:1", "https://127.0.0.1:2", false},
	} {
		_, err := NewFront(FrontConfig{Workers: []WorkerRef{{ID: "w0", URL: c.worker}}, Coordinator: c.coord})
		if (err == nil) != c.ok {
			t.Errorf("worker %q coordinator %q: err %v, want ok=%v", c.worker, c.coord, err, c.ok)
		}
	}
}

// TestHopExpiresIdleConns: a connection idle past maxIdleTime is closed the
// next time the hop is used, not reused.
func TestHopExpiresIdleConns(t *testing.T) {
	var dials atomic.Int32
	stub := httptest.NewUnstartedServer(okWorker)
	stub.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	stub.Start()
	defer stub.Close()
	front, err := NewFront(FrontConfig{Workers: []WorkerRef{{ID: "w0", URL: stub.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	h := front.workers["w0"].hop
	for i := 0; i < 2; i++ {
		if rec := serveFront(front, predictReq("cam-1")); rec.Code != http.StatusOK {
			t.Fatalf("predict %d: %d %s", i, rec.Code, rec.Body)
		}
		h.mu.Lock()
		if len(h.idle) != 1 {
			t.Fatalf("after predict %d: %d idle connections, want 1", i, len(h.idle))
		}
		h.idle[0].idleSince = time.Now().Add(-2 * maxIdleTime)
		h.mu.Unlock()
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("worker saw %d connections, want 2: the expired one must not be reused", n)
	}
}

// TestFrontProxyAllocs pins the allocations of one proxied, bodyless
// predict, counted over the whole process: the front's handler, its
// exchange with the worker, and the loopback stub worker's own handling.
func TestFrontProxyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	stub := httptest.NewServer(okWorker)
	defer stub.Close()
	front, err := NewFront(FrontConfig{Workers: []WorkerRef{{ID: "w0", URL: stub.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := predictReq("cam-1").WithContext(ctx) // a live request context, as a server gives
	w := &discardWriter{h: http.Header{}}
	call := func() {
		front.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("proxied predict: %d", w.code)
		}
	}
	for i := 0; i < 10; i++ {
		call()
	}
	if got := testing.AllocsPerRun(200, call); got > frontProxyAllocCeiling {
		t.Errorf("%.1f allocs per proxied predict, ceiling %v", got, frontProxyAllocCeiling)
	}
}

// frontProxyAllocCeiling is what the hop measures, most of it the stub
// worker's net/http. The same test measured 82 against the http.Client the
// front used before the hop, 38 with the hop before it parsed replies
// without http.ReadResponse, and 26 while each idle check built its own
// syscall.RawConn.
const frontProxyAllocCeiling = 23

type discardWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(code int) {
	d.code = code
	d.body.Reset()
}
func (d *discardWriter) Write(p []byte) (int, error) { return d.body.Write(p) }

// FuzzReplyMatchesReadResponse: wherever parseReply takes a head, the
// reply http.ReadResponse reads from the same bytes has the same status,
// Content-Type, length and close, and the same body bytes as far as they
// arrived.
func FuzzReplyMatchesReadResponse(f *testing.F) {
	const date = "Date: Mon, 19 Oct 2026 10:00:00 GMT\r\n"
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n" + date + "Content-Length: 2\r\n\r\n{}",
		"HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n" + date + "Content-Length: 3\r\nConnection: close\r\n\r\n{}\n",
		"HTTP/1.1 409 Conflict\r\nContent-Type: application/json; charset=utf-8\r\n" + date + "Content-Length: 10\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n" + date + "Content-Length: 0\r\n\r\nHTTP/1.1 200 OK\r\n",
		"HTTP/1.1 204 No Content\r\nContent-Type: application/json\r\n" + date + "Content-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 Fine\r\nContent-Type: application/json\r\n" + date + "Content-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n" + date + "Content-Length: 002\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Type:  application/json\r\n" + date + "Content-Length: 2\r\n\r\n{}",
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n" + date + "Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
		"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n" + date + "Content-Length: 2\r\n\r\n{}",
	} {
		f.Add([]byte(seed))
	}
	// What net/http writes for a hot handler, as the worker's reply.
	ts := httptest.NewServer(okWorker)
	nc, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		f.Fatal(err)
	}
	io.WriteString(nc, "POST /v1/sessions/c/predict HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
	raw, _ := io.ReadAll(nc)
	nc.Close()
	ts.Close()
	if _, n, _ := parseReply(raw); n == 0 {
		f.Fatalf("the strict parser declines net/http's reply %q", raw)
	}
	f.Add(raw)
	f.Fuzz(func(t *testing.T, b []byte) {
		h, n, _ := parseReply(b)
		if n == 0 {
			return
		}
		resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(b)), nil)
		if err != nil {
			t.Fatalf("strict head %q: ReadResponse: %v", b[:n], err)
		}
		body, _ := io.ReadAll(resp.Body)
		want := b[n:min(len(b), n+h.length)]
		if resp.StatusCode != h.status || resp.Header.Get("Content-Type") != string(h.ctype) ||
			resp.ContentLength != int64(h.length) || resp.Close != h.close || !bytes.Equal(body, want) {
			t.Fatalf("head %q: ReadResponse %d %q %d close=%v %q, strict %d %q %d close=%v %q", b[:n],
				resp.StatusCode, resp.Header.Get("Content-Type"), resp.ContentLength, resp.Close, body,
				h.status, h.ctype, h.length, h.close, want)
		}
	})
}
