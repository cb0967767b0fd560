package serve

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Owned connections. On a plain HTTP/1.1 keep-alive connection the first
// POST to a hot route takes the connection over from net/http; from then
// on one loop reads and answers every request on it. A request the strict
// parser (strict.go) accepts runs its hot route's handler with the
// connection's reused request and writer; any other goes through
// http.ReadRequest and the mux. Either way the response is buffered whole
// and framed as net/http frames a response it buffered whole. Handlers,
// counters, limits and /metrics series are those of net/http's path.

// An owned connection is idle while it waits for or reads a request and
// busy from the moment its handler runs until its response is written.
// Closing it closes an idle connection at once, a busy one after its
// response.
const (
	connIdle int32 = iota
	connBusy
	connClosing
	connClosed
)

// connBufSize is the loop's read buffer, net/http's size: a strict request
// head must fit in it.
const connBufSize = 4 << 10

// ownedConn is one connection a hot route took over.
type ownedConn struct {
	s      *Server
	hs     *http.Server
	nc     net.Conn
	cr     connReader
	br     *bufio.Reader
	state  atomic.Int32
	timed  bool  // hs sets a read, write or idle timeout
	limit  int64 // net/http's read limit on a request head
	post   bool  // the last request was a POST
	linger bool  // request bytes are left unread: half-close, then wait, as net/http does
	req    *http.Request
	body   ownedBody
	w      ownedWriter
	out    bytes.Buffer
	paths  map[string]hotPath // strict targets, their strings interned
	date   []byte
	sec    int64
}

type hotPath struct {
	route    int
	id, path string
}

// own wraps a hot route's handler h: on a connection that may be taken
// over it reads the body, hijacks the connection and serves it until it
// closes; otherwise h answers as usual.
func (s *Server) own(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		hj, _ := w.(http.Hijacker)
		hs, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
		if hj == nil || hs == nil || !r.ProtoAtLeast(1, 1) || r.Close || r.TLS != nil ||
			r.ContentLength < 0 || r.ContentLength > MaxBodyBytes {
			h(w, r)
			return
		}
		c := &ownedConn{s: s, hs: hs}
		ib := getIngestBuf()
		err := ib.readBody(r.Body, r.ContentLength)
		c.setBody(r, ib, err)
		if err == nil && c.hijack(hj, r) {
			defer s.release(c)
			ok := c.answer(h, r, true)
			putIngestBuf(ib)
			for ok && c.next() {
			}
			return
		}
		h(w, r)
		putIngestBuf(ib)
	}
}

// hijack registers c and takes its connection from net/http, keeping the
// bytes net/http read past the first request.
func (c *ownedConn) hijack(hj http.Hijacker, r *http.Request) bool {
	c.state.Store(connBusy)
	if !c.s.adopt(c) {
		return false
	}
	nc, brw, err := hj.Hijack()
	if err != nil {
		c.s.release(c)
		return false
	}
	pre, _ := brw.Reader.Peek(brw.Reader.Buffered())
	c.nc, c.cr = nc, connReader{pre: bytes.Clone(pre), nc: nc, remain: math.MaxInt64}
	c.br = bufio.NewReaderSize(&c.cr, connBufSize)
	c.req = (&http.Request{Method: http.MethodPost, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, URL: new(url.URL), RemoteAddr: r.RemoteAddr}).WithContext(r.Context())
	c.w.h, c.w.late, c.paths = http.Header{}, http.Header{}, map[string]hotPath{}
	hs := c.hs
	c.timed = hs.ReadTimeout > 0 || hs.ReadHeaderTimeout > 0 || hs.WriteTimeout > 0 || hs.IdleTimeout > 0
	c.limit = int64(cmp.Or(max(hs.MaxHeaderBytes, 0), http.DefaultMaxHeaderBytes)) + 4096
	nc.SetWriteDeadline(after(hs.WriteTimeout))
	return true
}

// adopt registers c, unless the server is closed or c's http.Server is
// shutting down. http.Server.Shutdown neither waits for nor closes
// hijacked connections, so the Server hooks itself into each one once.
func (s *Server) adopt(c *ownedConn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	down, seen := s.servers[c.hs]
	if s.connsClosed || down {
		return false
	}
	if !seen {
		hs := c.hs
		s.servers[hs] = false
		hs.RegisterOnShutdown(func() { s.shut(hs) })
	}
	s.conns[c] = struct{}{}
	s.loops.Add(1)
	return true
}

func (s *Server) release(c *ownedConn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
	if cw, ok := c.nc.(interface{ CloseWrite() error }); ok && c.linger {
		cw.CloseWrite()
		time.Sleep(500 * time.Millisecond)
	}
	if c.nc != nil {
		c.nc.Close()
	}
	s.loops.Done()
}

// shut closes the owned connections of hs, or all of them when hs is nil:
// an idle one now, a busy one after its response.
func (s *Server) shut(hs *http.Server) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if hs != nil {
		s.servers[hs] = true
	}
	for c := range s.conns {
		for (hs == nil || c.hs == hs) && !c.state.CompareAndSwap(connBusy, connClosing) {
			if c.state.CompareAndSwap(connIdle, connClosed) {
				c.nc.Close()
			}
			if c.state.Load() >= connClosing {
				break
			}
		}
	}
}

// after is the deadline d from now, or none when d is not positive.
func after(d time.Duration) time.Time {
	if d <= 0 {
		return time.Time{}
	}
	return time.Now().Add(d)
}

// next reads and answers one request; false ends the connection. The
// http.Server's timeouts and header limit apply as net/http applies them.
func (c *ownedConn) next() bool {
	hs := c.hs
	if c.timed {
		c.nc.SetReadDeadline(after(cmp.Or(hs.IdleTimeout, hs.ReadTimeout)))
	}
	if _, err := c.br.Peek(4); err != nil { // net/http too waits for 4 bytes
		return false
	}
	var whole time.Time
	if c.timed {
		c.nc.SetReadDeadline(after(cmp.Or(max(hs.ReadHeaderTimeout, 0), hs.ReadTimeout)))
		whole = after(hs.ReadTimeout)
	}
	if p, _ := c.br.Peek(4); c.post { // net/http skips a CR/LF sent after a POST body
		c.br.Discard(len(p) - len(bytes.TrimLeft(p, "\r\n")))
	}
	c.cr.remain, c.cr.hit = c.limit, false
	var hd strictHead
	n := 0
	for {
		b, _ := c.br.Peek(c.br.Buffered())
		var more bool
		if hd, n, more = parseStrict(b); !more || len(b) == connBufSize {
			break
		}
		if _, err := c.br.Peek(len(b) + 1); err != nil {
			break
		}
	}
	if n == 0 {
		return c.fallback(whole)
	}
	hp, ok := c.paths[string(hd.path)]
	if !ok {
		if len(c.paths) >= 64 {
			clear(c.paths)
		}
		hp = hotPath{route: hd.route, id: string(hd.id), path: string(hd.path)}
		c.paths[hp.path] = hp
	}
	r, u := c.req, c.req.URL
	u.Path, u.ForceQuery = hp.path, hd.query != nil && len(hd.query) == 0
	if string(hd.query) != u.RawQuery {
		u.RawQuery = string(hd.query)
	}
	if string(hd.host) != r.Host {
		r.Host = string(hd.host)
	}
	r.Close, r.ContentLength, r.Body = hd.close, hd.length, http.NoBody
	r.SetPathValue("id", hp.id)
	c.br.Discard(n)
	c.headRead(whole)
	if hd.length > 0 {
		ib := getIngestBuf()
		defer putIngestBuf(ib)
		c.setBody(r, ib, ib.readBody(c.br, hd.length))
	}
	return c.answer(c.s.hot[hp.route], r, false)
}

// setBody gives r the body read into ib or, when the read failed, the bytes
// read before err and then err, as net/http's body reader would.
func (c *ownedConn) setBody(r *http.Request, ib *ingestBuf, err error) {
	if err != nil {
		rb := &replayBody{err: err}
		rb.Reset(ib.body.Bytes())
		r.Body = rb
		return
	}
	c.body.reset(ib)
	r.Body = &c.body
}

// headRead follows a parsed request head: the header limit lifts, and the
// whole-request read deadline and the response's write deadline apply.
func (c *ownedConn) headRead(whole time.Time) {
	c.cr.remain = math.MaxInt64
	if c.timed {
		c.nc.SetReadDeadline(whole)
		c.nc.SetWriteDeadline(after(c.hs.WriteTimeout))
	}
}

// answer runs h on r and writes the response; false ends the connection.
// A takeover request's connection is busy already.
func (c *ownedConn) answer(h http.HandlerFunc, r *http.Request, busy bool) bool {
	if !busy && !c.state.CompareAndSwap(connIdle, connBusy) {
		return false
	}
	c.post = r.Method == http.MethodPost
	clear(c.w.h)
	c.w.code, c.w.body = 0, c.w.body[:0]
	h(&c.w, r)
	keep := true
	if r.ContentLength != 0 && r.Body != &c.body {
		// As net/http: discard what the handler left of the body, up to
		// 256 KiB; more than that closes the connection.
		_, err := io.CopyN(io.Discard, r.Body, 256<<10+1)
		keep, c.linger = err == io.EOF || err == http.ErrBodyReadAfterClose, err == nil
	}
	keep = c.frame(r, keep && c.state.Load() == connBusy)
	if _, err := c.nc.Write(c.out.Bytes()); err != nil || !keep {
		return false
	}
	return c.state.CompareAndSwap(connBusy, connIdle)
}

// frame writes the response c.w holds for r into c.out as net/http writes
// a response its handler finished within the buffer: the handler's headers
// (sorted), Date, Content-Length, a sniffed Content-Type, and Connection:
// close when the connection closes after it, which frame reports.
func (c *ownedConn) frame(r *http.Request, keep bool) bool {
	w, b := &c.w, &c.out
	code, is11, handlerClose := cmp.Or(w.code, http.StatusOK), r.ProtoAtLeast(1, 1), w.h.Get("Connection") == "close"
	keep = keep && is11 && !r.Close && !handlerClose
	if !keep && !handlerClose {
		delete(w.h, "Connection")
	}
	text, proto := http.StatusText(code), "HTTP/1.1 "
	if text == "" {
		text = "status code " + strconv.Itoa(code)
	}
	if !is11 {
		proto = "HTTP/1.0 "
	}
	b.Reset()
	b.WriteString(proto)
	b.Write(strconv.AppendInt(b.AvailableBuffer(), int64(code), 10))
	b.WriteString(" " + text + "\r\n")
	ok := code >= 200 && code != http.StatusNoContent && code != http.StatusNotModified
	delete(w.h, "Transfer-Encoding") // a length frames every response
	if !ok {
		delete(w.h, "Content-Length")
	}
	if code == http.StatusNotModified {
		delete(w.h, "Content-Type")
	}
	w.h.Write(b)
	if _, set := w.h["Date"]; !set {
		if now := time.Now(); now.Unix() != c.sec || c.date == nil {
			c.date, c.sec = now.UTC().AppendFormat(c.date[:0], http.TimeFormat), now.Unix()
		}
		b.WriteString("Date: ")
		b.Write(c.date)
		b.WriteString("\r\n")
	}
	head := r.Method == http.MethodHead
	if _, set := w.h["Content-Length"]; ok && !set && (!head || len(w.body) > 0) {
		b.WriteString("Content-Length: ")
		b.Write(strconv.AppendInt(b.AvailableBuffer(), int64(len(w.body)), 10))
		b.WriteString("\r\n")
	}
	if _, set := w.h["Content-Type"]; ok && !set && w.h.Get("Content-Encoding") == "" && len(w.body) > 0 {
		b.WriteString("Content-Type: " + http.DetectContentType(w.body) + "\r\n")
	}
	if !keep && !handlerClose && is11 {
		b.WriteString("Connection: close\r\n")
	}
	b.WriteString("\r\n")
	if ok && !head {
		b.Write(w.body)
	}
	return keep
}

// fallback serves a request the strict parser declined through
// http.ReadRequest and the mux; false ends the connection. A head net/http
// refuses gets net/http's refusal.
func (c *ownedConn) fallback(whole time.Time) bool {
	req, err := http.ReadRequest(c.br)
	if err != nil || req.ProtoAtLeast(1, 1) && req.Host == "" {
		msg := "400 Bad Request"
		var ne net.Error
		switch {
		case c.cr.hit:
			msg, c.linger = "431 Request Header Fields Too Large", true
		case err == nil:
			msg += ": missing required Host header"
		case err == io.EOF || errors.As(err, &ne): // net/http answers no read error
			return false
		}
		io.WriteString(c.nc, "HTTP/1.1 "+msg+"\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"+msg)
		return false
	}
	c.headRead(whole)
	if strings.EqualFold(req.Header.Get("Expect"), "100-continue") && req.ProtoAtLeast(1, 1) && req.ContentLength != 0 {
		if _, err := io.WriteString(c.nc, "HTTP/1.1 100 Continue\r\n\r\n"); err != nil {
			return false
		}
	}
	req.RemoteAddr = c.req.RemoteAddr
	return c.answer(c.s.mux.ServeHTTP, req.WithContext(c.req.Context()), false)
}

// connReader feeds the loop's bufio.Reader: first the bytes net/http read
// past the takeover request, then the connection; no more than remain
// bytes while a request head is read (hit: the limit stopped a read).
type connReader struct {
	pre    []byte
	nc     net.Conn
	remain int64
	hit    bool
}

func (r *connReader) Read(p []byte) (n int, err error) {
	if r.remain <= 0 {
		r.hit = true
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), r.remain)]
	if len(r.pre) > 0 {
		n = copy(p, r.pre)
		r.pre = r.pre[n:]
	} else {
		n, err = r.nc.Read(p)
	}
	r.remain -= int64(n)
	return n, err
}

// ownedWriter buffers one response whole. As in net/http, a header set
// after the status is written is not sent: Header then returns late.
type ownedWriter struct {
	h, late http.Header
	code    int
	body    []byte
}

func (w *ownedWriter) Header() http.Header {
	if w.code != 0 {
		clear(w.late)
		return w.late
	}
	return w.h
}

func (w *ownedWriter) WriteHeader(code int) { w.code = cmp.Or(w.code, code) }

func (w *ownedWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}

// replayBody gives a handler the body bytes read before err, then err
// once, then EOF, as net/http's body reader does.
type replayBody struct {
	bytes.Reader
	err error
}

func (b *replayBody) Read(p []byte) (int, error) {
	n, err := b.Reader.Read(p)
	if err == io.EOF && b.err != nil {
		err, b.err = b.err, nil
	}
	return n, err
}

func (b *replayBody) Close() error { return nil }
