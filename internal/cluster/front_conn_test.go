package cluster

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
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eventhit/internal/serve"
)

// netHTTPOnly serves h through net/http's per-request path alone: the
// wrapped writer is no Hijacker, so no connection is taken over.
func netHTTPOnly(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(struct{ http.ResponseWriter }{w}, r)
	})
}

// gatewayRequest is the bytes of one request as bench's gateways send it.
func gatewayRequest(method, path string, body []byte) []byte {
	s := method + " " + path + " HTTP/1.1\r\nHost: bench\r\n"
	if method == http.MethodPost {
		s += "Content-Type: application/json\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n"
	}
	return append([]byte(s+"\r\n"), body...)
}

// framesBody is a frames body of the stream frames [lo, hi).
func framesBody(t testing.TB, bw *clusterBundle, lo, hi int) []byte {
	req := serve.FramesRequest{}
	for i := lo; i < hi; i++ {
		req.Frames = append(req.Frames, bw.ex.FrameVector(i, nil))
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// frontSide is a front on loopback TCP in front of its own worker.
type frontSide struct {
	front  *Front
	addr   string // the front's
	worker string // the worker's URL, which replies may quote
}

// frontTwins returns a front whose connections may be taken over and a
// twin that net/http serves alone, each before its own worker in the same
// state: session "cam", one frame short of a full window.
func frontTwins(t testing.TB) (owned, twin frontSide) {
	bw := getClusterBundle(t)
	for i, side := range []*frontSide{&owned, &twin} {
		w, err := NewWorker(WorkerConfig{ID: "w0", Serve: baseServeConfig(bw)})
		if err != nil {
			t.Fatal(err)
		}
		if side.worker, err = w.Start("127.0.0.1:0", ""); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		if side.front, err = NewFront(FrontConfig{Workers: []WorkerRef{{ID: "w0", URL: side.worker}}}); err != nil {
			t.Fatal(err)
		}
		for _, req := range []*http.Request{
			httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(`{"id":"cam"}`)),
			httptest.NewRequest(http.MethodPost, "/v1/sessions/cam/frames", bytes.NewReader(framesBody(t, bw, 100, 109))),
		} {
			if rec := serveFront(side.front, req); rec.Code/100 != 2 {
				t.Fatalf("fixture %s: %d %s", req.URL, rec.Code, rec.Body)
			}
		}
		var h http.Handler = side.front
		if i == 1 {
			h = netHTTPOnly(h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		t.Cleanup(side.front.Close)
		side.addr = ts.Listener.Addr().String()
	}
	return owned, twin
}

// lastRequest ends every script: the connection closes after its answer.
var lastRequest = []byte("GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")

// play writes script and then lastRequest on one connection to side's
// front, without closing its write half (net/http would cancel a request
// whose client did, and the loop would not), and returns what the front
// wrote until it closed the connection or fell silent for a second. The
// worker's URL in the replies is masked, keeping their lengths.
func play(t *testing.T, side frontSide, script []byte) []byte {
	nc, err := net.Dial("tcp", side.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	go nc.Write(append(bytes.Clone(script), lastRequest...))
	var out bytes.Buffer
	buf := make([]byte, 32<<10)
	for {
		nc.SetReadDeadline(time.Now().Add(time.Second))
		n, err := nc.Read(buf)
		out.Write(buf[:n])
		if err != nil {
			break
		}
	}
	host := strings.TrimPrefix(side.worker, "http://")
	return bytes.ReplaceAll(out.Bytes(), []byte(host), []byte(strings.Repeat("W", len(host))))
}

// replies splits raw into its replies, the Date values blanked.
func replies(t *testing.T, raw []byte) []string {
	br := bufio.NewReader(bytes.NewReader(raw))
	var out []string
	for {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			return out
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reply %d body: %v", len(out), err)
		}
		if resp.Header.Get("Date") != "" {
			resp.Header.Set("Date", "-")
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s %s close=%v\n", resp.Proto, resp.Status, resp.Close)
		resp.Header.Write(&b)
		b.Write(body)
		out = append(out, b.String())
	}
}

// FuzzFrontTakeoverMatchesNetHTTP: after a hot request has taken a
// connection to the front over, up to four pipelined requests (any bytes)
// get the replies net/http gives the same bytes on a twin front before a
// twin worker: the same status, headers (Date aside), body and close or
// keep-open, on the strict path, after the loop hands the connection back
// and after a hot POST takes it over again.
func FuzzFrontTakeoverMatchesNetHTTP(f *testing.F) {
	bw := getClusterBundle(f)
	push := string(gatewayRequest(http.MethodPost, "/v1/sessions/cam/frames", framesBody(f, bw, 109, 110)))
	predict := string(gatewayRequest(http.MethodPost, "/v1/sessions/cam/predict", nil))
	frames := string(framesBody(f, bw, 110, 111))
	for _, seed := range [][4]string{
		{push, predict, push, predict}, // cluster_predict's requests
		{"POST /v1/sessions/cam/frames HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n" +
			fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(frames), frames), predict, "", ""},
		{push, string(gatewayRequest(http.MethodGet, "/v1/stats", nil)), predict, ""},
		{push, "POST /v1/sessions/cam/predict HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n", predict, ""},
		{string(gatewayRequest(http.MethodPost, "/v1/sessions/nobody/predict", nil)), push, predict, ""},
		{string(gatewayRequest(http.MethodPost, "/v1/predict", nil)), predict, "", ""},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]), []byte(seed[2]), []byte(seed[3]))
	}
	takeover := []byte(predict)
	f.Fuzz(func(t *testing.T, a, b, c, d []byte) {
		reqs := bytes.Join([][]byte{a, b, c, d}, nil)
		if len(reqs) > 64<<10 {
			return
		}
		script := append(bytes.Clone(takeover), reqs...)
		owned, twin := frontTwins(t)
		got, want := play(t, owned, script), play(t, twin, script)
		g, w := replies(t, got), replies(t, want)
		if len(g) != len(w) {
			t.Fatalf("%d replies on the owned connection, %d from net/http\nowned:\n%s\nnet/http:\n%s", len(g), len(w), got, want)
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("reply %d differs\nowned:\n%s\nnet/http:\n%s", i, g[i], w[i])
			}
		}
	})
}

// stallWorker answers like okWorker, except that a request whose query
// has "stall" waits until release is closed or the front drops it.
type stallWorker struct {
	entered chan struct{}
	release chan struct{}
}

func newStallWorker(t *testing.T) (*stallWorker, *httptest.Server) {
	sw := &stallWorker{entered: make(chan struct{}, 1), release: make(chan struct{})}
	return sw, httptest.NewServer(sw)
}

func (sw *stallWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Has("stall") {
		sw.entered <- struct{}{}
		select {
		case <-sw.release:
		case <-r.Context().Done():
			return
		}
	}
	okWorker(w, r)
}

// ownedFront serves f on loopback TCP through an http.Server.
func ownedFront(t *testing.T, f *Front) (*http.Server, string, chan struct{}) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: f}
	served := make(chan struct{})
	go func() { hs.Serve(ln); close(served) }()
	return hs, ln.Addr().String(), served
}

// dialFront opens a gateway connection to addr.
func dialFront(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc, bufio.NewReader(nc)
}

// roundTrip writes req on nc and reads one reply.
func roundTrip(t *testing.T, nc net.Conn, br *bufio.Reader, req []byte) *http.Response {
	t.Helper()
	if _, err := nc.Write(req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	return resp
}

// settle waits until the goroutine count falls to base, and fails with
// every stack if it does not.
func settle(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines, %d before the front started:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// TestFrontOwnedConnShutdown: http.Server.Shutdown and then Front.Close
// close an owned idle connection at once, let a predict in flight to a
// slow worker finish with 200 before closing its connection, close a
// connection net/http serves and one the loop handed back to it, and leave
// no goroutine behind.
func TestFrontOwnedConnShutdown(t *testing.T) {
	base := runtime.NumGoroutine()
	sw, stub := newStallWorker(t)
	front, err := NewFront(FrontConfig{Workers: []WorkerRef{{ID: "w0", URL: stub.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	hs, addr, served := ownedFront(t, front)
	predict := gatewayRequest(http.MethodPost, "/v1/sessions/cam/predict", nil)
	type conn struct {
		nc net.Conn
		br *bufio.Reader
	}
	conns := map[string]*conn{}
	for _, name := range []string{"owned idle", "owned busy", "not owned", "handed back"} {
		nc, br := dialFront(t, addr)
		conns[name] = &conn{nc, br}
		req := predict
		if name == "not owned" {
			req = gatewayRequest(http.MethodGet, "/healthz", nil)
		}
		if resp := roundTrip(t, nc, br, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s", name, resp.Status)
		}
	}
	if n := front.owner.Len(); n != 3 {
		t.Fatalf("the front owns %d connections, want 3", n)
	}
	handed := conns["handed back"]
	if resp := roundTrip(t, handed.nc, handed.br, gatewayRequest(http.MethodGet, "/v1/stats", nil)); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %s", resp.Status)
	}
	busy := conns["owned busy"]
	if _, err := busy.nc.Write(gatewayRequest(http.MethodPost, "/v1/sessions/cam/predict?stall=1", nil)); err != nil {
		t.Fatal(err)
	}
	<-sw.entered
	if err := hs.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { front.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a predict was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(sw.release)
	resp, err := http.ReadResponse(busy.br, nil)
	if err != nil {
		t.Fatalf("the in-flight predict got no reply: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK || !resp.Close {
		t.Fatalf("in-flight predict: %s, close=%v", resp.Status, resp.Close)
	}
	<-closed
	<-served
	for name, c := range conns {
		c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := c.br.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("%s connection: read %d bytes, %v; want EOF", name, n, err)
		}
	}
	stub.Close()
	settle(t, base)
}

// TestFrontOwnedConnGauge: the front's /metrics counts the client
// connections it took over, 1 while a gateway holds one and 0 once
// Front.Close has closed it.
func TestFrontOwnedConnGauge(t *testing.T) {
	stub := httptest.NewServer(okWorker)
	defer stub.Close()
	front, err := NewFront(FrontConfig{Workers: []WorkerRef{{ID: "w0", URL: stub.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	hs, addr, served := ownedFront(t, front)
	gauge := func() string {
		rec := serveFront(front, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if strings.HasPrefix(line, "eventhit_http_owned_connections ") {
				return line
			}
		}
		t.Fatalf("no eventhit_http_owned_connections in the front's /metrics:\n%s", rec.Body)
		return ""
	}
	if got := gauge(); got != "eventhit_http_owned_connections 0" {
		t.Fatalf("before any gateway: %q", got)
	}
	nc, br := dialFront(t, addr)
	if resp := roundTrip(t, nc, br, gatewayRequest(http.MethodPost, "/v1/sessions/cam/predict", nil)); resp.StatusCode != http.StatusOK {
		t.Fatalf("takeover: %s", resp.Status)
	}
	if got := gauge(); got != "eventhit_http_owned_connections 1" {
		t.Fatalf("while a gateway holds a taken-over connection: %q", got)
	}
	front.Close()
	if got := gauge(); got != "eventhit_http_owned_connections 0" {
		t.Fatalf("after Front.Close: %q", got)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := br.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("the gateway's connection after Front.Close: read %d bytes, %v; want EOF", n, err)
	}
	hs.Close()
	<-served
}

// TestFrontOwnedConnClientGone: the loop does not read while its handler
// runs, so a client that closes its owned connection mid-exchange does not
// cancel the exchange, as it would on net/http's path. The connection
// stays owned until the worker answers or the hop's timeout passes; then
// the loop ends and no goroutine is left.
func TestFrontOwnedConnClientGone(t *testing.T) {
	for _, answers := range []bool{true, false} {
		t.Run(fmt.Sprintf("worker answers=%v", answers), func(t *testing.T) {
			base := runtime.NumGoroutine()
			sw, stub := newStallWorker(t)
			front, err := NewFront(FrontConfig{Workers: []WorkerRef{{ID: "w0", URL: stub.URL}}})
			if err != nil {
				t.Fatal(err)
			}
			const timeout = time.Second
			if !answers {
				front.workers["w0"].hop.timeout = timeout
			}
			hs, addr, served := ownedFront(t, front)
			nc, br := dialFront(t, addr)
			if resp := roundTrip(t, nc, br, gatewayRequest(http.MethodPost, "/v1/sessions/cam/predict", nil)); resp.StatusCode != http.StatusOK {
				t.Fatalf("takeover: %s", resp.Status)
			}
			if _, err := nc.Write(gatewayRequest(http.MethodPost, "/v1/sessions/cam/predict?stall=1", nil)); err != nil {
				t.Fatal(err)
			}
			<-sw.entered
			nc.Close()
			time.Sleep(100 * time.Millisecond)
			if n := front.owner.Len(); n != 1 {
				t.Fatalf("%d owned connections after the client left mid-exchange, want 1 until the worker answers", n)
			}
			begin := time.Now()
			if answers {
				close(sw.release)
			}
			for front.owner.Len() > 0 && time.Since(begin) < 5*time.Second {
				time.Sleep(5 * time.Millisecond)
			}
			if n := front.owner.Len(); n != 0 {
				t.Fatalf("the loop outlived its exchange: %d owned connections", n)
			}
			hs.Close()
			<-served
			stub.Close()
			settle(t, base)
		})
	}
}

// TestFrontOwnedConnAllocs holds a predict proxied on an owned front
// connection to frontOwnedConnAllocCeiling: the loop adds no allocation,
// and the request context, which nothing cancels, costs the exchange no
// watch, so it is below frontProxyAllocCeiling, the same predict through
// the front's handler with a live context.
func TestFrontOwnedConnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	stub := httptest.NewServer(okWorker)
	defer stub.Close()
	front, err := NewFront(FrontConfig{Workers: []WorkerRef{{ID: "w0", URL: stub.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	hs, addr, _ := ownedFront(t, front)
	defer hs.Close()
	nc, _ := dialFront(t, addr)
	predict := gatewayRequest(http.MethodPost, "/v1/sessions/cam/predict", nil)
	buf := make([]byte, 4096)
	var fails atomic.Int32
	call := func() {
		if _, err := nc.Write(predict); err != nil {
			t.Fatal(err)
		}
		if n := readReply(nc, buf); !bytes.HasPrefix(buf[:n], []byte("HTTP/1.1 200 ")) {
			fails.Add(1)
		}
	}
	for i := 0; i < 10; i++ {
		call()
	}
	if n := front.owner.Len(); n != 1 {
		t.Fatalf("the front owns %d connections, want 1", n)
	}
	if got := testing.AllocsPerRun(200, call); got > frontOwnedConnAllocCeiling {
		t.Errorf("%.1f allocs per predict proxied on an owned connection, ceiling %v", got, frontOwnedConnAllocCeiling)
	}
	if n := fails.Load(); n > 0 {
		t.Fatalf("%d predicts did not answer 200", n)
	}
}

// frontOwnedConnAllocCeiling is what TestFrontOwnedConnAllocs measures; it
// read 26, as the in-process path did, while every exchange registered a
// context.AfterFunc on a context that never fires.
const frontOwnedConnAllocCeiling = 20

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
