package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/fleet"
	"eventhit/internal/trace"
)

// rawRequest is the bytes of one HTTP/1.1 request as a gateway sends it.
func rawRequest(method, path string, body []byte) []byte {
	s := method + " " + path + " HTTP/1.1\r\nHost: t\r\n"
	if method == http.MethodPost {
		s += "Content-Type: application/json\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n"
	}
	return append([]byte(s+"\r\n"), body...)
}

// framesJSON is a frames body of the stream frames [lo, hi).
func framesJSON(t testing.TB, bw *Bundlewrap, lo, hi int) []byte {
	t.Helper()
	frames := make([][]float64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		frames = append(frames, bw.ex.FrameVector(i, nil))
	}
	b, err := json.Marshal(FramesRequest{Frames: frames})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// netHTTPOnly serves h through net/http's per-request path alone: the
// wrapped writer is no Hijacker, so no connection is taken over.
func netHTTPOnly(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(struct{ http.ResponseWriter }{w}, r)
	})
}

// scriptConn is a server-side connection that reads a fixed script and then
// EOF, or with hold set waits after the script until it is closed, records
// what the server writes, and reports when it is closed.
type scriptConn struct {
	in     *bytes.Reader
	hold   bool
	mu     sync.Mutex
	out    bytes.Buffer
	closed chan struct{}
	once   sync.Once
}

func newScriptConn(in []byte, hold bool) *scriptConn {
	return &scriptConn{in: bytes.NewReader(in), hold: hold, closed: make(chan struct{})}
}

func (c *scriptConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	n, err := c.in.Read(p)
	c.mu.Unlock()
	if err == io.EOF && c.hold {
		<-c.closed
	}
	return n, err
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.Write(p)
}

func (c *scriptConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *scriptConn) LocalAddr() net.Addr              { return pipeAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr             { return pipeAddr{} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// connListener hands an http.Server the connections it is given.
type connListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newConnListener() *connListener {
	return &connListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *connListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *connListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *connListener) Addr() net.Addr { return pipeAddr{} }

// dial returns the client end of a net.Pipe whose server end l accepts.
func (l *connListener) dial() net.Conn {
	c, s := net.Pipe()
	l.conns <- s
	return c
}

// serveConns serves h over l until the test ends.
func serveConns(t testing.TB, h http.Handler) (*http.Server, *connListener) {
	l := newConnListener()
	hs := &http.Server{Handler: h}
	go hs.Serve(l)
	t.Cleanup(func() { hs.Close() })
	return hs, l
}

// takeoverFixture is a server whose connections may be taken over and a
// twin in the same state that net/http serves alone: session "cam", one
// frame short of a full window.
func takeoverFixture(t testing.TB) (owned, twin *Server) {
	bw := getBundle(t)
	for _, p := range []**Server{&owned, &twin} {
		srv, _ := bareServer(t)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(`{"id":"cam"}`)))
		if err := pushFrames(srv, "cam", bw.ex, 100, 108); err != nil {
			t.Fatal(err)
		}
		*p = srv
	}
	return owned, twin
}

// camPredict and camFrames are the fixture session's hot routes;
// camPredict takes the owned side's connection over at the start of every
// fuzz script.
const camPredict, camFrames = "/v1/sessions/cam/predict", "/v1/sessions/cam/frames"

var takeoverHead = rawRequest("POST", camPredict, nil)

// exchange plays script on one connection of h, waiting after it when hold
// is set, and returns what the server wrote before it closed the
// connection.
func exchange(t *testing.T, h http.Handler, script []byte, hold bool) []byte {
	_, l := serveConns(t, h)
	c := newScriptConn(script, hold)
	l.conns <- c
	select {
	case <-c.closed:
	case <-time.After(10 * time.Second):
		t.Fatalf("the server did not close the connection; script %.200q", script)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Clone(c.out.Bytes())
}

// readResponses splits raw into its responses, Date values blanked and
// the wall-clock lines of a /metrics body left out.
func readResponses(t *testing.T, raw []byte) []string {
	br := bufio.NewReader(bytes.NewReader(raw))
	var out []string
	for {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			return out
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("response %d body: %v", len(out), err)
		}
		if resp.Header.Get("Date") != "" {
			resp.Header.Set("Date", "-")
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s %s close=%v\n", resp.Proto, resp.Status, resp.Close)
		resp.Header.Write(&b)
		for _, line := range strings.SplitAfter(string(body), "\n") {
			if !wallClock(line) {
				b.WriteString(line)
			}
		}
		out = append(out, b.String())
	}
}

// FuzzTakeoverMatchesNetHTTP: after a hot request has taken a connection
// over, up to four pipelined requests (any bytes) get the responses
// net/http gives the same bytes on a twin server: the same status, headers
// (Date aside) and body (/metrics without its wall-clock lines), and the
// same close or keep-open. That holds for every response of the script:
// the strict path's, and those net/http gives once the loop has handed the
// connection back, until a hot POST takes it over again. Besides the
// committed seeds (TestWriteTakeoverSeeds), one push of over 1 MiB is built
// here, too large to commit.
func FuzzTakeoverMatchesNetHTTP(f *testing.F) {
	predict := rawRequest("POST", camPredict, nil)
	f.Add(predict, rawRequest("POST", camFrames, bigPush(f)), predict, []byte{})
	f.Fuzz(func(t *testing.T, a, b, c, d []byte) {
		reqs := bytes.Join([][]byte{a, b, c, d}, nil)
		if len(reqs) > 2<<20 {
			return
		}
		script := append(bytes.Clone(takeoverHead), reqs...)
		owned, twin := takeoverFixture(t)
		got := exchange(t, owned, script, false)
		want := exchange(t, netHTTPOnly(twin), script, false)
		g, w := readResponses(t, got), readResponses(t, want)
		if len(g) != len(w) {
			t.Fatalf("%d responses on the owned connection, %d from net/http\nowned:\n%s\nnet/http:\n%s", len(g), len(w), got, want)
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("response %d differs\nowned:\n%s\nnet/http:\n%s", i, g[i], w[i])
			}
		}
	})
}

// bigPush is a canonical push of MaxFramesPerPush frames padded with
// trailing blanks to 1 MiB and 1 KiB.
func bigPush(t testing.TB) []byte {
	push := framesJSON(t, getBundle(t), 100, 100+MaxFramesPerPush)
	return append(push, bytes.Repeat([]byte(" "), 1<<20+1<<10-len(push))...)
}

// TestOwnedConnLargeBody: net/http closes a connection after a response
// whose handler left 256 KiB or more of the request body unread, and keeps
// it when the handler read the body; an owned connection, whose handlers
// read their bodies from it, must do the same. Predicts never read their body; a push reads it whole, unless its
// session is unknown. Each script ends on a predict that only a kept
// connection answers. A body that ends before its Content-Length keeps the
// connection only when the handler read it to its error and less than 256
// KiB of the declared length is missing. A request its handler does not
// read, which declares 8 MiB and sends 300 KiB of it from a client that
// then waits, is answered without the rest. The fixture's session holds
// less than a window, so predicts answer 409 until a push fills it. POST
// /v1/predict and /v1/frames name no session: net/http answers them 404,
// on a fresh connection and on a taken-over one, which the next predict
// takes over again.
func TestOwnedConnLargeBody(t *testing.T) {
	bw := getBundle(t)
	big := bytes.Repeat([]byte("x"), 300<<10)
	push := framesJSON(t, bw, 100, 100+MaxFramesPerPush)
	push = append(push, bytes.Repeat([]byte(" "), 1<<20-len(push))...) // 1 MiB, trailing blanks
	const nosuch = "/v1/sessions/nosuch/frames"
	predict := rawRequest("POST", camPredict, nil)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// gone posts to the un-prefixed routes, which name no session.
	gone := cat(rawRequest("POST", "/v1/predict", nil), rawRequest("POST", "/v1/frames", framesJSON(t, bw, 100, 110)))
	// cut is a request for path whose body ends 10 bytes into the n it
	// declares, at the end of the script.
	cut := func(path string, n int) []byte {
		return rawRequest("POST", path, big[:n])[:len(rawRequest("POST", path, nil))+10]
	}
	// declared is a request for path that declares a MaxBodyBytes body and
	// sends 300 KiB of it.
	declared := func(path string) []byte {
		return append([]byte("POST "+path+" HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: "+
			strconv.Itoa(MaxBodyBytes)+"\r\n\r\n"), big...)
	}
	for _, tc := range []struct {
		name   string
		script []byte
		hold   bool  // the client waits after the script
		codes  []int // the statuses net/http answers with, one per response
	}{
		{"takeover predict declaring 8 MiB, 300 KiB sent", declared(camPredict), true, []int{409}},
		{"predict declaring 8 MiB, 300 KiB sent", cat(predict, declared(camPredict)), true, []int{409, 409}},
		{"takeover unknown-session push declaring 8 MiB, 300 KiB sent", declared(nosuch), true, []int{404}},
		{"unknown-session push declaring 8 MiB, 300 KiB sent", cat(predict, declared(nosuch)), true, []int{409, 404}},
		{"predict with a 300 KiB body", cat(predict, rawRequest("POST", camPredict, big), predict), false, []int{409, 409}},
		{"takeover predict with a 300 KiB body", cat(rawRequest("POST", camPredict, big), predict), false, []int{409}},
		{"predict with a body just under 256 KiB", cat(predict, rawRequest("POST", camPredict, big[:256<<10-1]), predict), false, []int{409, 409, 409}},
		{"unknown-session push with a 300 KiB body", cat(predict, rawRequest("POST", nosuch, big), predict), false, []int{409, 404}},
		{"takeover unknown-session push with a 300 KiB body", cat(rawRequest("POST", nosuch, big), predict), false, []int{404}},
		{"unknown-session push with a body just under 256 KiB", cat(predict, rawRequest("POST", nosuch, big[:256<<10-1]), predict), false, []int{409, 404, 409}},
		{"1 MiB push", cat(predict, rawRequest("POST", camFrames, push), predict), false, []int{409, 200, 200}},
		{"takeover 1 MiB push", cat(rawRequest("POST", camFrames, push), predict), false, []int{200, 200}},
		{"predict whose 300 KiB body ends early", cat(predict, cut(camPredict, 300<<10)), false, []int{409, 409}},
		{"predict whose 100-byte body ends early", cat(predict, cut(camPredict, 100)), false, []int{409, 409}},
		{"push whose 100-byte body ends early", cat(predict, cut(camFrames, 100)), false, []int{409, 400}},
		{"push whose 300 KiB body ends early", cat(predict, cut(camFrames, 300<<10)), false, []int{409, 400}},
		{"takeover push whose 100-byte body ends early", cut(camFrames, 100), false, []int{400}},
		{"takeover push whose 300 KiB body ends early", cut(camFrames, 300<<10), false, []int{400}},
		{"no default routes", cat(gone, predict), false, []int{404, 404, 409}},
		{"no default routes after a takeover", cat(predict, gone, predict), false, []int{409, 404, 404, 409}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			owned, twin := takeoverFixture(t)
			got := exchange(t, owned, tc.script, tc.hold)
			want := exchange(t, netHTTPOnly(twin), tc.script, tc.hold)
			g, w := readResponses(t, got), readResponses(t, want)
			var codes []int
			for _, r := range w {
				code, _ := strconv.Atoi(strings.Fields(r)[1])
				codes = append(codes, code)
			}
			if !slices.Equal(codes, tc.codes) {
				t.Fatalf("net/http answered %v, the test expects %v:\n%s", codes, tc.codes, want)
			}
			if len(g) != len(w) {
				t.Fatalf("%d responses on the owned connection, %d from net/http\nowned:\n%s\nnet/http:\n%s", len(g), len(w), got, want)
			}
			for i := range g {
				if g[i] != w[i] {
					t.Fatalf("response %d differs\nowned:\n%s\nnet/http:\n%s", i, g[i], w[i])
				}
			}
		})
	}
}

// metricLines returns the /metrics sample lines of srv whose name starts
// with one of the prefixes.
func metricLines(t testing.TB, srv *Server, prefixes ...string) []string {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var out []string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		for _, p := range prefixes {
			if strings.HasPrefix(line, p) {
				out = append(out, line)
			}
		}
	}
	return out
}

// clientConn is a gateway's keep-alive connection: it writes prebuilt
// request bytes and parses the replies.
type clientConn struct {
	nc net.Conn
	br *bufio.Reader
}

func dialConn(t testing.TB, addr string) *clientConn {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &clientConn{nc: nc, br: bufio.NewReader(nc)}
}

func (c *clientConn) do(t testing.TB, req []byte) (*http.Response, []byte) {
	t.Helper()
	if _, err := c.nc.Write(req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// wallClock marks the /metrics lines that differ between two servers fed
// the same requests: request latencies, and the owned-connection gauge.
func wallClock(line string) bool {
	return strings.HasPrefix(line, "eventhit_http_request_duration_seconds_bucket") ||
		strings.HasPrefix(line, "eventhit_http_request_duration_seconds_sum") ||
		strings.HasPrefix(line, "eventhit_http_owned_connections ")
}

// sameReply fails unless an owned connection's reply equals net/http's:
// status, close, headers with Date aside and body. A /metrics body is
// compared without its wall-clock lines, and, being longer than net/http
// buffers before it chunks, without its framing.
func sameReply(t testing.TB, what string, got, want *http.Response, gb, wb []byte) {
	t.Helper()
	metrics := strings.Contains(what, " /metrics ")
	for _, h := range []http.Header{got.Header, want.Header} {
		h.Del("Date")
		if metrics {
			h.Del("Content-Length")
		}
	}
	if metrics {
		var lines [2][]string
		for i, b := range [][]byte{gb, wb} {
			for _, line := range strings.Split(string(b), "\n") {
				if !wallClock(line) {
					lines[i] = append(lines[i], line)
				}
			}
		}
		gb, wb = []byte(strings.Join(lines[0], "\n")), []byte(strings.Join(lines[1], "\n"))
	}
	gh, wh := fmt.Sprint(got.Header), fmt.Sprint(want.Header)
	if got.Status != want.Status || got.Close != want.Close || gh != wh || !bytes.Equal(gb, wb) {
		t.Fatalf("%s: owned reply differs from net/http's\nowned:    %s close=%v %s\n%s\nnet/http: %s close=%v %s\n%s",
			what, got.Status, got.Close, gh, gb, want.Status, want.Close, wh, wb)
	}
}

// TestOwnedConnMixedTraffic is paced_relay's traffic on two connections of
// a relay-owning server (CI, result cache, arbiter, adaptation), 16 sessions
// each: every session is created after the connection's first hot push (to
// a session "c<g>" made in process), its
// window filled by 1 000-frame pushes, then ticks of a 1-frame push and a
// predict with /metrics and /v1/stats scrapes between them. Every reply
// equals, Date aside, a twin's that net/http serves alone, and /v1/stats
// equals what the replies add up to.
func TestOwnedConnMixedTraffic(t *testing.T) {
	bw := getBundle(t)
	cfg := func() Config {
		cc := cicache.DefaultConfig()
		ad := DefaultAdaptConfig()
		return Config{
			Bundle: bw.b, EventNames: []string{"Volleyball Spiking"}, PerFrameUSD: 0.001,
			DefaultConfidence: 0.95, DefaultCoverage: 0.9,
			CI:    cloud.NewService(bw.st, cloud.RekognitionPricing(), cloud.DefaultLatency()),
			Cache: &cc, Adapt: &ad,
			Fleet: &fleet.ArbiterConfig{PerFrameUSD: 0.001, GlobalBudgetUSD: 1e9},
		}
	}
	oc, tc := cfg(), cfg()
	owned, twin := sessionServer(t, &oc, 2), sessionServer(t, &tc, 2)
	ots, tts := httptest.NewServer(owned), httptest.NewServer(netHTTPOnly(twin))
	defer tts.Close()
	defer ots.Close()
	defer owned.Close()
	const conns, sessions, ticks, prep = 2, 16, 12, 1500
	type gateway struct{ owned, twin *clientConn }
	gws := make([]gateway, conns)
	for g := range gws {
		gws[g] = gateway{dialConn(t, ots.Listener.Addr().String()), dialConn(t, tts.Listener.Addr().String())}
	}
	var totals struct{ predicts, relays, skipped, served, deferred, frames int64 }
	send := func(g int, req []byte) []byte {
		t.Helper()
		gr, gb := gws[g].owned.do(t, req)
		wr, wb := gws[g].twin.do(t, req)
		what := string(req[:bytes.IndexByte(req, '\r')])
		sameReply(t, what, gr, wr, gb, wb)
		if gr.StatusCode/100 != 2 {
			t.Fatalf("%s: %s %s", what, gr.Status, gb)
		}
		return gb
	}
	push := func(g int, id string, lo, hi int) {
		t.Helper()
		send(g, rawRequest("POST", "/v1/sessions/"+id+"/frames", framesJSON(t, bw, lo, hi)))
		totals.frames += int64(hi - lo)
	}
	id := func(g, s int) string { return fmt.Sprintf("cam-%02d-%02d", g, s) }
	// A first hot push takes each connection over.
	for g := range gws {
		push(g, fmt.Sprintf("c%d", g), 0, 10)
	}
	if got := metricLines(t, owned, "eventhit_http_owned_connections "); len(got) != 1 || got[0] != "eventhit_http_owned_connections 2" {
		t.Fatalf("owned connections: %q", got)
	}
	for s := 0; s < sessions; s++ {
		for g := range gws {
			send(g, rawRequest("POST", "/v1/sessions", []byte(`{"id":"`+id(g, s)+`"}`)))
			origin := 50 * (g*sessions + s)
			for lo := 0; lo < prep+origin; lo += 1000 {
				push(g, id(g, s), lo, min(lo+1000, prep+origin))
			}
		}
	}
	for tick := 0; tick < ticks; tick++ {
		for s := 0; s < sessions; s++ {
			for g := range gws {
				at := prep + 50*(g*sessions+s) + tick
				push(g, id(g, s), at, at+1)
				var resp PredictResponse
				if err := json.Unmarshal(send(g, rawRequest("POST", "/v1/sessions/"+id(g, s)+"/predict", nil)), &resp); err != nil {
					t.Fatal(err)
				}
				totals.predicts++
				for _, d := range resp.Decisions {
					switch {
					case !d.Relay:
						totals.skipped++
					case d.Deferred:
						totals.relays++
						totals.deferred++
					default:
						totals.relays++
						totals.served++
					}
				}
			}
		}
		if tick%4 == 3 {
			for g := range gws {
				send(g, rawRequest("GET", "/metrics", nil))
				send(g, rawRequest("GET", "/v1/stats", nil))
			}
		}
	}
	var st Stats
	if err := json.Unmarshal(send(0, rawRequest("GET", "/v1/stats", nil)), &st); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what         string
		server, sent int64
	}{
		{"predictions", st.Predictions, totals.predicts},
		{"framesIngested", int64(st.FramesIngested), totals.frames},
		{"relays", st.Relays, totals.relays},
		{"skippedHorizons", st.SkippedHorizons, totals.skipped},
		{"relayedOK", st.RelayedOK, totals.served},
		{"deferredRelays+admissionDeferred", st.DeferredRelays + st.AdmissionDeferred, totals.deferred},
	} {
		if c.server != c.sent {
			t.Errorf("/v1/stats %s = %d, replies add up to %d", c.what, c.server, c.sent)
		}
	}
	if totals.relays == 0 || totals.skipped == 0 {
		t.Errorf("the ticks never exercised both verdicts: %+v", totals)
	}
}

// gateWriter is a trace sink that, once armed, holds every write until it
// is released, so a predict stays in flight.
type gateWriter struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (w *gateWriter) Write(p []byte) (int, error) {
	if w.armed.Load() {
		select {
		case w.entered <- struct{}{}:
		default:
		}
		<-w.release
	}
	return len(p), nil
}

// TestOwnedConnShutdown: http.Server.Shutdown and then Server.Close close an
// idle owned connection at once, let an owned connection's in-flight
// predict finish with 200 before closing it, close a connection net/http
// still serves, one the loop handed back to it, one whose loop waits for
// the rest of a predict's body and one whose push handler waits for the
// rest of its body, and leave no loop goroutine behind. Close on a server
// that owns nothing returns at once.
func TestOwnedConnShutdown(t *testing.T) {
	bw := getBundle(t)
	idle, _ := bareServer(t)
	start := time.Now()
	idle.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close on a server that owns nothing took %v", d)
	}
	base := runtime.NumGoroutine()
	gate := &gateWriter{entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv := sessionServer(t, &Config{
		Bundle: bw.b, EventNames: []string{"Volleyball Spiking"}, PerFrameUSD: 0.001,
		DefaultConfidence: 0.9, DefaultCoverage: 0.9, Trace: trace.NewWriter(gate),
	}, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	served := make(chan struct{})
	go func() { hs.Serve(ln); close(served) }()
	addr := ln.Addr().String()
	push := rawRequest("POST", "/v1/sessions/c0/frames", framesJSON(t, bw, 300, 310))
	ownedIdle, inFlight, plain, handed, stalled := dialConn(t, addr), dialConn(t, addr), dialConn(t, addr), dialConn(t, addr), dialConn(t, addr)
	for _, c := range []*clientConn{ownedIdle, inFlight, handed, stalled} {
		if resp, body := c.do(t, push); resp.StatusCode != http.StatusOK {
			t.Fatalf("push: %s %s", resp.Status, body)
		}
	}
	if resp, _ := plain.do(t, rawRequest("GET", "/healthz", nil)); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	if resp, _ := handed.do(t, rawRequest("GET", "/v1/stats", nil)); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %s", resp.Status)
	}
	// stalled's push declares 100 KiB and sends half: its handler reads the
	// half and waits for the rest, the connection idle meanwhile. The steps
	// below give the loop ample time to get there.
	if _, err := stalled.nc.Write(append([]byte("POST /v1/sessions/c0/frames HTTP/1.1\r\nHost: t\r\nContent-Length: 102400\r\n\r\n"), make([]byte, 50<<10)...)); err != nil {
		t.Fatal(err)
	}
	// draining's predict declares 100 KiB and sends half. Once its handler
	// has run (the request counters move), the loop waits for the rest, as
	// net/http would.
	draining := dialConn(t, addr)
	if resp, body := draining.do(t, push); resp.StatusCode != http.StatusOK {
		t.Fatalf("push: %s %s", resp.Status, body)
	}
	counts := metricLines(t, srv, "eventhit_http_requests_total")
	half := append([]byte("POST /v1/sessions/c0/predict HTTP/1.1\r\nHost: t\r\nContent-Length: 102400\r\n\r\n"), make([]byte, 50<<10)...)
	if _, err := draining.nc.Write(half); err != nil {
		t.Fatal(err)
	}
	for wait := time.Now().Add(5 * time.Second); slices.Equal(metricLines(t, srv, "eventhit_http_requests_total"), counts); {
		if time.Now().After(wait) {
			t.Fatal("the predict with half its body never ran")
		}
		time.Sleep(time.Millisecond)
	}
	gate.armed.Store(true)
	if _, err := inFlight.nc.Write(rawRequest("POST", "/v1/sessions/c0/predict", nil)); err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	if err := hs.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a predict was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	gate.armed.Store(false)
	close(gate.release)
	resp, err := http.ReadResponse(inFlight.br, nil)
	if err != nil {
		t.Fatalf("the in-flight predict got no response: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK || !resp.Close {
		t.Fatalf("in-flight predict: %s, close=%v", resp.Status, resp.Close)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return: a loop outlived the shutdown")
	}
	<-served
	for name, c := range map[string]*clientConn{"owned idle": ownedIdle, "owned busy": inFlight, "not owned": plain, "handed back": handed, "draining": draining, "stalled push": stalled} {
		c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := c.br.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("%s connection: read %d bytes, %v; want EOF", name, n, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines, %d before the server started:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// TestOwnedConnTimeouts: an owned connection keeps its http.Server's
// ReadHeaderTimeout and IdleTimeout. After a push takes it over, a head
// stalled halfway and a connection left idle close when their net/http
// twins do: within half the gap between the two timeouts of each other, so
// the one that applies is the one net/http applies.
func TestOwnedConnTimeouts(t *testing.T) {
	bw := getBundle(t)
	const header, idle = 300 * time.Millisecond, 900 * time.Millisecond
	push := rawRequest("POST", "/v1/sessions/c0/frames", framesJSON(t, bw, 300, 310))
	stall := []byte("POST /v1/sessions/c0/predict HTTP/1.1\r\nHost: t\r\n")
	cases := []struct {
		name string
		send []byte
	}{{"head stalled", stall}, {"idle", nil}}
	var wg sync.WaitGroup
	closedAfter := map[string]map[bool]time.Duration{}
	var mu sync.Mutex
	for _, owned := range []bool{true, false} {
		srv := sessionServer(t, nil, 1)
		var h http.Handler = srv
		if !owned {
			h = netHTTPOnly(srv)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: h, ReadHeaderTimeout: header, IdleTimeout: idle}
		go hs.Serve(ln)
		t.Cleanup(func() { hs.Close(); srv.Close() })
		for _, tc := range cases {
			c := dialConn(t, ln.Addr().String())
			if resp, body := c.do(t, push); resp.StatusCode != http.StatusOK {
				t.Fatalf("push: %s %s", resp.Status, body)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				if _, err := c.nc.Write(tc.send); err != nil {
					t.Error(err)
				}
				c.nc.SetReadDeadline(start.Add(5 * time.Second))
				if n, err := c.br.Read(make([]byte, 1)); err != io.EOF {
					t.Errorf("%s (owned %v): read %d bytes, %v; want EOF", tc.name, owned, n, err)
				}
				mu.Lock()
				defer mu.Unlock()
				if closedAfter[tc.name] == nil {
					closedAfter[tc.name] = map[bool]time.Duration{}
				}
				closedAfter[tc.name][owned] = time.Since(start)
			}()
		}
		if n := srv.owner.Len(); owned != (n == len(cases)) {
			t.Fatalf("owned %v: the server owns %d connections", owned, n)
		}
	}
	wg.Wait()
	for _, tc := range cases {
		o, n := closedAfter[tc.name][true], closedAfter[tc.name][false]
		if d := o - n; d < -(idle-header)/2 || d > (idle-header)/2 {
			t.Errorf("%s: the owned connection closed after %v, its net/http twin after %v", tc.name, o, n)
		}
	}
}

// TestOwnedConnAllocs holds a 1-frame push and a predict on an owned
// connection to ownedPairAllocCeiling, one allocation per request (the
// status-capturing writer): the loop and the body it hands the handler
// allocate nothing. The client writes prebuilt bytes over net.Pipe and
// reads each reply into a fixed buffer.
func TestOwnedConnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds buffers under the race detector")
	}
	bw := getBundle(t)
	srv := sessionServer(t, nil, 1)
	pushTo(t, srv, "c0", bw.ex, 300, 308)
	_, l := serveConns(t, srv)
	nc := l.dial()
	defer nc.Close()
	push := rawRequest("POST", "/v1/sessions/c0/frames", framesJSON(t, bw, 309, 310))
	predict := rawRequest("POST", "/v1/sessions/c0/predict", nil)
	buf := make([]byte, 4096)
	roundTrip := func(req []byte) {
		if _, err := nc.Write(req); err != nil {
			t.Fatal(err)
		}
		if n := readReply(nc, buf); !bytes.HasPrefix(buf[:n], []byte("HTTP/1.1 200 ")) {
			t.Fatalf("reply %q", buf[:n])
		}
	}
	pair := func() { roundTrip(push); roundTrip(predict) }
	for i := 0; i < 20; i++ {
		pair()
	}
	if got := metricLines(t, srv, "eventhit_http_owned_connections "); len(got) != 1 || got[0] != "eventhit_http_owned_connections 1" {
		t.Fatalf("owned connections: %q", got)
	}
	if got := testing.AllocsPerRun(100, pair); got > ownedPairAllocCeiling {
		t.Errorf("%.1f allocs per owned push + predict, ceiling %v", got, ownedPairAllocCeiling)
	}
}

// ownedPairAllocCeiling is what TestOwnedConnAllocs measures; the ceiling
// was 4, the sum of the two handlers' in-process ceilings.
const ownedPairAllocCeiling = 2

// readReply reads one Content-Length-framed reply from c into buf and
// returns its length, without allocating.
func readReply(c net.Conn, buf []byte) int {
	n, end, length := 0, -1, 0
	for end < 0 || n < end+length {
		m, err := c.Read(buf[n:])
		n += m
		if err != nil {
			return n
		}
		if end < 0 {
			if i := bytes.Index(buf[:n], []byte("\r\n\r\n")); i >= 0 {
				end = i + 4
				if j := bytes.Index(buf[:i], []byte("Content-Length: ")); j >= 0 {
					for _, d := range buf[j+len("Content-Length: ") : i] {
						if d < '0' || d > '9' {
							break
						}
						length = length*10 + int(d-'0')
					}
				}
			}
		}
	}
	return n
}

// TestOwnedConnCountsRequests: requests answered on an owned connection
// feed the same eventhit_http_requests_total and request-duration series as
// requests net/http answers, one count each.
func TestOwnedConnCountsRequests(t *testing.T) {
	bw := getBundle(t)
	const n = 5
	series := []string{"eventhit_http_requests_total", "eventhit_http_request_duration_seconds_count"}
	var got [2][]string
	for i, takeOver := range []bool{false, true} {
		srv := sessionServer(t, nil, 1)
		pushTo(t, srv, "c0", bw.ex, 300, 308)
		var h http.Handler = srv
		if !takeOver {
			h = netHTTPOnly(srv)
		}
		ts := httptest.NewServer(h)
		c := dialConn(t, ts.Listener.Addr().String())
		for k := 0; k < n; k++ {
			// GET /v1/stats hands an owned connection back to net/http; the
			// push takes it over again, so each round ends on it owned.
			for _, req := range [][]byte{
				rawRequest("GET", "/v1/stats", nil),
				rawRequest("POST", "/v1/sessions/c0/frames", framesJSON(t, bw, 309+k, 310+k)),
				rawRequest("POST", "/v1/sessions/c0/predict", nil),
				rawRequest("POST", "/v1/sessions/nobody/predict", nil),
			} {
				c.do(t, req)
			}
		}
		got[i] = metricLines(t, srv, series...)
		owned := metricLines(t, srv, "eventhit_http_owned_connections ")
		if want := fmt.Sprintf("eventhit_http_owned_connections %d", i); len(owned) != 1 || owned[0] != want {
			t.Errorf("takeOver=%v: %q, want %q", takeOver, owned, want)
		}
		c.nc.Close()
		ts.Close()
		srv.Close()
	}
	if strings.Join(got[0], "\n") != strings.Join(got[1], "\n") {
		t.Fatalf("net/http path:\n%s\nowned connection:\n%s", strings.Join(got[0], "\n"), strings.Join(got[1], "\n"))
	}
	for _, want := range []string{
		`eventhit_http_requests_total{code="200",endpoint="/v1/sessions/frames"} 6`,
		`eventhit_http_requests_total{code="200",endpoint="/v1/sessions/predict"} 5`,
		`eventhit_http_requests_total{code="404",endpoint="/v1/sessions/predict"} 5`,
		`eventhit_http_request_duration_seconds_count{endpoint="/v1/sessions/predict"} 10`,
	} {
		if !strings.Contains(strings.Join(got[1], "\n"), want) {
			t.Errorf("owned connection: no %s in\n%s", want, strings.Join(got[1], "\n"))
		}
	}
}

// TestParseStrict: the strict parser takes the heads gateways and
// serve.Client send and declines everything else, or asks for more bytes of
// a head that is not complete yet.
func TestParseStrict(t *testing.T) {
	type strictCase struct {
		head       string
		route      int
		id         string
		n          int // 0: declined or more
		more       bool
		close      bool
		length     int64
		query, why string
	}
	client := clientHeads(t)
	for _, tc := range []strictCase{
		{head: client[0], route: hotSessionPredict, id: "cam-1", n: len(client[0]), query: "confidence=0.9", why: "Client.Predict"},
		{head: client[1], route: hotSessionFrames, id: "cam-1", n: len(client[1]), length: int64(len(`{"frames":[[0.5]]}`)), why: "Client.PushFrames"},
		{head: "POST /v1/sessions/cam-1/frames HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\nContent-Length: 12\r\nConnection: Close\r\n\r\n{",
			route: hotSessionFrames, id: "cam-1", n: 123, close: true, length: 12},
		{head: "POST /v1/sessions/c/predict?confidence=0.5 HTTP/1.1\r\nHost: t\r\n\r\n", route: hotSessionPredict, id: "c", n: 64, query: "confidence=0.5"},
		{head: "POS", more: true, why: "a prefix of POST"},
		{head: "POST /v1/sessions/c/predict HTTP/1.1\r\nHost: t\r\n", more: true, why: "no blank line yet"},
		{head: "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n", why: "not a POST"},
		{head: "POST /v1/sessions/c/predict HTTP/1.0\r\nHost: t\r\n\r\n", why: "HTTP/1.0"},
		{head: "POST /v1/sessions/c/predict HTTP/1.1\nHost: t\n\n", why: "bare LF"},
		{head: "POST /v1/sessions/c/predict HTTP/1.1\r\n\r\n", why: "no Host"},
		{head: "POST /v1/sessions/c/predict HTTP/1.1\r\nHost: t\r\nHost: t\r\n\r\n", why: "two Hosts"},
		{head: "POST /v1/sessions/c/predict HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\n", why: "duplicate Content-Length"},
		{head: "POST /v1/sessions/c/predict HTTP/1.1\r\nHost: t\r\nContent-Length: 8388609\r\n\r\n", why: "over MaxBodyBytes"},
		{head: "POST /v1/sessions/c/predict HTTP/1.1\r\nHost: t\r\nContent-Length: +1\r\n\r\n", why: "signed length"},
		{head: "POST /v1/sessions/c/frames HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n", why: "chunked"},
		{head: "POST /v1/sessions/c/frames HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\n\r\n", why: "Expect"},
		{head: "POST /v1/sessions/c/frames HTTP/1.1\r\nHost: t\r\nConnection: upgrade\r\n\r\n", why: "another Connection"},
		{head: "POST /v1/sessions/c/frames HTTP/1.1\r\nHost: t\r\n X: y\r\n\r\n", why: "folded line"},
		{head: "POST /v1/sessions HTTP/1.1\r\nHost: t\r\n\r\n", why: "not a hot route"},
		{head: "POST /v1/predict HTTP/1.1\r\nHost: t\r\n\r\n", why: "no route: a predict names its session"},
		{head: "POST /v1/frames HTTP/1.1\r\nHost: t\r\n\r\n", why: "no route: a push names its session"},
		{head: "POST /v1/sessions/../predict HTTP/1.1\r\nHost: t\r\n\r\n", why: "unclean path"},
		{head: "POST /v1/sessions/a%2Fb/predict HTTP/1.1\r\nHost: t\r\n\r\n", why: "escaped id"},
		{head: "POST /v1/sessions/c/predict/ HTTP/1.1\r\nHost: t\r\n\r\n", why: "trailing slash"},
		{head: "POST /v1/sessions/c/predict  HTTP/1.1\r\nHost: t\r\n\r\n", why: "two spaces"},
		{head: "POST /v1/sessions/c/predict HTTP/1.1\r\nHost: t\x7f\r\n\r\n", why: "control byte"},
		{head: "POST /v1/sessions/c/predict HTTP/1.1\r\nHost: t\r\nUser-Agent: a\r\nUser-Agent: a\r\n\r\n", why: "two User-Agents"},
		{head: "POST /v1/sessions/c/predict HTTP/1.1\r\nHost: t\r\nAccept-Encoding: gzip\x01\r\n\r\n", why: "control byte in Accept-Encoding"},
	} {
		hd, n, more := parseStrict([]byte(tc.head))
		if n != tc.n || more != tc.more {
			t.Errorf("%q (%s): n=%d more=%v, want n=%d more=%v", tc.head, tc.why, n, more, tc.n, tc.more)
			continue
		}
		if n > 0 && (hd.route != tc.route || string(hd.id) != tc.id || hd.close != tc.close || hd.length != tc.length || string(hd.query) != tc.query) {
			t.Errorf("%q: %+v", tc.head, hd)
		}
	}
}

// recordingListener records the bytes its connections read.
type recordingListener struct {
	net.Listener
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &recordingConn{Conn: c, l: l}, nil
}

type recordingConn struct {
	net.Conn
	l *recordingListener
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.mu.Lock()
	c.l.buf.Write(p[:n])
	c.l.mu.Unlock()
	return n, err
}

// clientHeads returns the request heads Client.Predict (confidence 0.9)
// and Client.PushFrames (one frame {0.5}) write for session cam-1 through
// Go's http.Client, as a recording listener reads them.
func clientHeads(t *testing.T) []string {
	srv, _ := bareServer(t)
	ts := httptest.NewUnstartedServer(netHTTPOnly(srv))
	rl := &recordingListener{Listener: ts.Listener}
	ts.Listener = rl
	ts.Start()
	defer ts.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	cl := NewClient(ts.URL, &http.Client{Transport: tr})
	// Only the heads matter, not the answers.
	cl.Predict(context.Background(), "cam-1", 0.9, 0)
	cl.PushFrames(context.Background(), "cam-1", [][]float64{{0.5}})
	rl.mu.Lock()
	defer rl.mu.Unlock()
	heads := strings.SplitAfter(rl.buf.String(), "\r\n\r\n")
	if len(heads) < 2 || !strings.Contains(heads[0], "User-Agent: ") || !strings.Contains(heads[0], "Accept-Encoding: gzip") {
		t.Fatalf("no heads with the headers http.Client adds in %q", heads)
	}
	return heads[:2]
}

// TestWriteTakeoverSeeds regenerates FuzzTakeoverMatchesNetHTTP's committed
// seeds when TAKEOVER_SEEDS=write is set, and otherwise checks that they
// are the ones listed here.
func TestWriteTakeoverSeeds(t *testing.T) {
	frame := "[" + strings.TrimSuffix(strings.Repeat("0.5,", getBundle(t).ex.Dim()), ",") + "]"
	push := func(path string) string {
		return string(rawRequest("POST", path, []byte(`{"frames":[`+frame+`]}`)))
	}
	predict := string(rawRequest("POST", camPredict, nil))
	seeds := map[string][4]string{
		"hot-default":       {push("/v1/frames"), string(rawRequest("POST", "/v1/predict", nil)), string(rawRequest("POST", "/v1/predict", nil)), ""},
		"hot-push":          {push(camFrames), predict, predict, ""},
		"hot-session":       {push("/v1/sessions/cam/frames"), string(rawRequest("POST", "/v1/sessions/cam/predict?confidence=0.5", nil)), string(rawRequest("POST", "/v1/sessions/nobody/predict", nil)), ""},
		"chunked-push":      {"POST " + camFrames + " HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n" + fmt.Sprintf("%x\r\n{\"frames\":[%s]}\r\n0\r\n\r\n", len(frame)+13, frame), predict, "", ""},
		"expect-continue":   {"POST " + camFrames + " HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\nContent-Length: " + strconv.Itoa(len(frame)+13) + "\r\n\r\n{\"frames\":[" + frame + "]}", predict, "", ""},
		"connection-close":  {push(camFrames), "POST " + camPredict + " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n", predict, ""},
		"http10":            {"POST " + camPredict + " HTTP/1.0\r\nHost: t\r\n\r\n", predict, "", ""},
		"oversized-length":  {predict, "POST " + camFrames + " HTTP/1.1\r\nHost: t\r\nContent-Length: 99999999\r\n\r\n{}", "", ""},
		"bare-lf":           {"POST " + camPredict + " HTTP/1.1\nHost: t\n\n", predict, "", ""},
		"duplicate-length":  {"POST " + camFrames + " HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}", predict, "", ""},
		"get-metrics":       {predict, string(rawRequest("GET", "/metrics", nil)), predict, ""},
		"delete-204":        {string(rawRequest("DELETE", "/v1/sessions/cam", nil)), string(rawRequest("POST", "/v1/sessions/cam/predict", nil)), "", ""},
		"truncated-body":    {predict, "POST " + camFrames + " HTTP/1.1\r\nHost: t\r\nContent-Length: 40\r\n\r\n{\"frames\":", "", ""},
		"client-head":       {"POST " + camPredict + "?confidence=0.9 HTTP/1.1\r\nHost: t\r\nUser-Agent: Go-http-client/1.1\r\nContent-Length: 0\r\nContent-Type: application/json\r\nAccept-Encoding: gzip\r\n\r\n", predict, "", ""},
		"declined-then-hot": {string(rawRequest("GET", "/v1/stats", nil)), predict, push(camFrames), ""},
		"push-ends-early":   {push(camFrames), push(camFrames)[:len(push(camFrames))-4], "", ""},
		"expect-after-back": {string(rawRequest("GET", "/v1/stats", nil)), "POST /v1/sessions/cam/frames HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\nContent-Length: " + strconv.Itoa(len(frame)+13) + "\r\n\r\n{\"frames\":[" + frame + "]}", predict, push(camFrames)},
		"push-over-buffer":  {predict, string(rawRequest("POST", camFrames, []byte(`{"frames":[`+strings.Repeat(frame+",", 200)+frame+`]}`))), predict, ""},
	}
	dir := "testdata/fuzz/FuzzTakeoverMatchesNetHTTP"
	for name, s := range seeds {
		var b strings.Builder
		b.WriteString("go test fuzz v1\n")
		for _, v := range s {
			fmt.Fprintf(&b, "[]byte(%s)\n", strconv.Quote(v))
		}
		path := dir + "/" + name
		if os.Getenv("TAKEOVER_SEEDS") == "write" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != b.String() {
			t.Errorf("seed %s is stale (regenerate with TAKEOVER_SEEDS=write): %v", path, err)
		}
	}
}
