package serve

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Owner takes keep-alive connections over from net/http for one handler
// (Server, and the cluster front): on a plain HTTP/1.1 connection the first
// POST to a hot route, a session's predict or frames, hijacks it, and one
// loop reads it from then on. A request the strict parser (strict.go)
// accepts runs its route's handler, body and response as net/http would
// run it; at any other the loop hands the connection, behind the bytes it
// read ahead, back to its http.Server until a hot POST takes it over
// again. Handle is called before any request is served; the zero Owner is
// ready.
type Owner struct {
	hot [len(hotPatterns)]http.HandlerFunc // by route

	// mu guards conns, the http.Servers hooked for shutdown (servers: true
	// once shutting down) and closed (set by Close); loops counts loops.
	mu      sync.Mutex
	conns   map[*ownedConn]struct{}
	servers map[*http.Server]bool
	closed  bool
	loops   sync.WaitGroup
}

// hotPatterns are the mux patterns of the hot routes, by route.
var hotPatterns = [...]string{"POST /v1/sessions/{id}/predict", "POST /v1/sessions/{id}/frames"}

// Len is the number of connections the owner holds.
func (o *Owner) Len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.conns)
}

// Close closes the owned connections, an idle one at once and a busy one
// after its response, waits for their loops and takes over no more.
func (o *Owner) Close() {
	o.shut(nil)
	o.loops.Wait()
}

// An owned connection is busy while a handler runs and its response is
// written (the zero state: the request that takes it over runs first), idle
// while it waits for a request or a body's bytes. Closing it closes an idle
// one at once, a busy one after its response; one handed back is closed.
const (
	connBusy int32 = iota
	connIdle
	connClosing
	connClosed
)

// connBufSize is the loop's read buffer, net/http's size: a strict request
// head must fit in it.
const connBufSize = 4 << 10

// maxPostHandlerReadBytes is net/http's: a handler that leaves this much of
// its request body unread has the connection closed after its response.
const maxPostHandlerReadBytes = 256 << 10

// ownedConn is one connection a hot route took over.
type ownedConn struct {
	o     *Owner
	hs    *http.Server
	pc    prefixConn // the connection, behind the bytes net/http read past the takeover request
	br    *bufio.Reader
	state atomic.Int32
	timed bool // hs sets a read, write or idle timeout
	req   *http.Request
	body  lazyBody
	w     ownedWriter
	out   bytes.Buffer
	paths map[string]hotPath // strict targets, their strings interned
	date  []byte
	sec   int64
}

type hotPath struct {
	route    int
	id, path string
}

// Handle registers predict and frames on mux for the hot routes: on a
// connection that may be taken over the owner hijacks it and serves it
// until it closes or goes back to net/http; otherwise the handler answers
// as usual. Every body is read as its handler reads it, so a request that
// expects 100-continue stays with net/http.
func (o *Owner) Handle(mux *http.ServeMux, predict, frames http.HandlerFunc) {
	o.hot = [...]http.HandlerFunc{predict, frames}
	for route, h := range o.hot {
		mux.HandleFunc(hotPatterns[route], func(w http.ResponseWriter, r *http.Request) {
			hj, _ := w.(http.Hijacker)
			hs, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
			if hj == nil || hs == nil || !r.ProtoAtLeast(1, 1) || r.Close || r.TLS != nil ||
				r.ContentLength < 0 || r.ContentLength > MaxBodyBytes || r.Header.Get("Expect") != "" {
				h(w, r)
				return
			}
			c := &ownedConn{o: o, hs: hs}
			if !c.hijack(hj, r) {
				h(w, r)
				return
			}
			defer o.release(c)
			for ok := c.answer(h, r); ok && c.next(); {
			}
		})
	}
}

// hijack registers c, takes its connection from net/http, keeping the bytes
// net/http read past r, and gives r its body on c. A connection net/http was
// handed back is unwrapped, so wrappers never nest. The reused request has
// r's context without its cancellation, which the loop would never signal.
func (c *ownedConn) hijack(hj http.Hijacker, r *http.Request) bool {
	if !c.o.adopt(c) {
		return false
	}
	nc, brw, err := hj.Hijack()
	if err != nil {
		c.o.release(c)
		return false
	}
	pre, _ := brw.Reader.Peek(brw.Reader.Buffered())
	pre = bytes.Clone(pre)
	if pc, ok := nc.(*prefixConn); ok {
		nc, pre = pc.Conn, append(pre, pc.pre...)
	}
	c.pc = prefixConn{Conn: nc, pre: pre}
	c.br = bufio.NewReaderSize(&c.pc, connBufSize)
	c.body = lazyBody{c: c, LimitedReader: io.LimitedReader{R: c.br, N: r.ContentLength}}
	r.Body = &c.body
	c.req = (&http.Request{Method: http.MethodPost, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, URL: new(url.URL), RemoteAddr: r.RemoteAddr, Body: &c.body}).WithContext(context.WithoutCancel(r.Context()))
	c.w.h, c.paths = http.Header{}, map[string]hotPath{}
	hs := c.hs
	c.timed = hs.ReadTimeout > 0 || hs.ReadHeaderTimeout > 0 || hs.WriteTimeout > 0 || hs.IdleTimeout > 0
	nc.SetReadDeadline(after(hs.ReadTimeout))
	nc.SetWriteDeadline(after(hs.WriteTimeout))
	return true
}

// adopt registers c, unless the owner is closed or c's http.Server is
// shutting down. http.Server.Shutdown neither waits for nor closes
// hijacked connections, so the owner hooks itself into each one once.
func (o *Owner) adopt(c *ownedConn) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	down, seen := o.servers[c.hs]
	if o.closed || down {
		return false
	}
	if o.conns == nil {
		o.conns, o.servers = map[*ownedConn]struct{}{}, map[*http.Server]bool{}
	}
	if !seen {
		hs := c.hs
		o.servers[hs] = false
		hs.RegisterOnShutdown(func() { o.shut(hs) })
	}
	o.conns[c] = struct{}{}
	o.loops.Add(1)
	return true
}

func (o *Owner) release(c *ownedConn) {
	o.mu.Lock()
	delete(o.conns, c)
	o.mu.Unlock()
	if c.pc.Conn != nil {
		c.pc.Close()
	}
	o.loops.Done()
}

// shut closes the owned connections of hs, or for good all of them when hs
// is nil: an idle one now, a busy one after its response.
func (o *Owner) shut(hs *http.Server) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if hs != nil {
		o.servers[hs] = true
	} else {
		o.closed = true
	}
	for c := range o.conns {
		for (hs == nil || c.hs == hs) && !c.state.CompareAndSwap(connBusy, connClosing) {
			if c.state.CompareAndSwap(connIdle, connClosed) {
				c.pc.Close()
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

// next reads and answers one request; false ends the loop. The
// http.Server's timeouts apply as net/http applies them.
func (c *ownedConn) next() bool {
	hs := c.hs
	if c.timed {
		c.pc.SetReadDeadline(after(cmp.Or(hs.IdleTimeout, hs.ReadTimeout)))
	}
	p, err := c.br.Peek(4) // net/http too waits for 4 bytes
	if err != nil {
		return false
	}
	c.br.Discard(len(p) - len(bytes.TrimLeft(p, "\r\n"))) // net/http skips a CR/LF sent after a POST body
	var body time.Time
	if c.timed {
		c.pc.SetReadDeadline(after(cmp.Or(max(hs.ReadHeaderTimeout, 0), hs.ReadTimeout)))
		body = after(hs.ReadTimeout)
	}
	var hd strictHead
	n := 0
	for {
		b, _ := c.br.Peek(c.br.Buffered())
		var more bool
		if hd, n, more = parseStrict(b); !more || len(b) == connBufSize {
			break
		}
		if _, err = c.br.Peek(len(b) + 1); err != nil {
			break
		}
	}
	if n == 0 {
		if err == nil || err == io.EOF { // net/http answers no other read error
			c.handBack()
		}
		return false
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
	if string(hd.ctype) != r.Header.Get("Content-Type") {
		r.Header["Content-Type"] = []string{string(hd.ctype)}
	}
	c.body.N, c.body.err = hd.length, nil
	r.Close, r.ContentLength = hd.close, hd.length
	r.SetPathValue("id", hp.id)
	c.br.Discard(n)
	if c.timed {
		c.pc.SetReadDeadline(body)
		c.pc.SetWriteDeadline(after(hs.WriteTimeout))
	}
	return c.state.CompareAndSwap(connIdle, connBusy) && c.answer(c.o.hot[hp.route], r)
}

// handBack gives the connection, behind the bytes the loop has read ahead,
// back to the http.Server it was taken from, unless a shutdown closed it
// first; its Shutdown and Close then cover it as any other connection. It
// leaves conns first, so shut never closes a connection net/http holds.
func (c *ownedConn) handBack() {
	o := c.o
	o.mu.Lock()
	ok := c.state.CompareAndSwap(connIdle, connClosed)
	delete(o.conns, c)
	o.mu.Unlock()
	if !ok {
		return
	}
	ahead, _ := c.br.Peek(c.br.Buffered())
	l := &oneConn{c: &prefixConn{Conn: c.pc.Conn, pre: append(bytes.Clone(ahead), c.pc.pre...)}}
	c.pc.Conn = nil
	c.hs.Serve(l)
	if !l.taken {
		l.c.Close()
	}
}

// answer runs h on r and writes the response; false ends the loop. What h
// left of the body is read first, and the connection closes after the
// response when r asked to close or drain says so, as net/http closes it.
func (c *ownedConn) answer(h http.HandlerFunc, r *http.Request) bool {
	clear(c.w.h)
	c.w.code, c.w.body = 0, c.w.body[:0]
	h(&c.w, r)
	// A shutdown that began while h ran closes the connection undrained.
	keep := !r.Close && c.state.Load() == connBusy && c.body.drain() && c.state.Load() == connBusy
	c.frame(keep)
	if _, err := c.pc.Write(c.out.Bytes()); err != nil || !keep {
		return false
	}
	return c.state.CompareAndSwap(connBusy, connIdle)
}

// frame writes the response c.w holds into c.out as net/http writes one
// its handler finished within the buffer: the handler's headers (sorted),
// Date, Content-Length, and Connection: close unless keep is set. A hot
// handler answers 200, 400, 404, 409, 413 or 500, always with a Content-Type.
func (c *ownedConn) frame(keep bool) {
	w, b := &c.w, &c.out
	code := cmp.Or(w.code, http.StatusOK)
	b.Reset()
	b.WriteString("HTTP/1.1 ")
	b.Write(strconv.AppendInt(b.AvailableBuffer(), int64(code), 10))
	b.WriteString(" " + http.StatusText(code) + "\r\n")
	w.h.Write(b)
	if now := time.Now(); now.Unix() != c.sec || c.date == nil {
		c.date, c.sec = now.UTC().AppendFormat(c.date[:0], http.TimeFormat), now.Unix()
	}
	b.WriteString("Date: ")
	b.Write(c.date)
	b.WriteString("\r\nContent-Length: ")
	b.Write(strconv.AppendInt(b.AvailableBuffer(), int64(len(w.body)), 10))
	if !keep {
		b.WriteString("\r\nConnection: close")
	}
	b.WriteString("\r\n\r\n")
	b.Write(w.body)
}

// prefixConn is a connection behind bytes already read from it: the
// owned loop's source, and what a connection handed back gives net/http.
type prefixConn struct {
	net.Conn
	pre []byte
}

func (c *prefixConn) Read(p []byte) (int, error) {
	if len(c.pre) == 0 {
		return c.Conn.Read(p)
	}
	n := copy(p, c.pre)
	c.pre = c.pre[n:]
	return n, nil
}

// CloseWrite lets net/http half-close the connection, as it does a TCP one.
func (c *prefixConn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// oneConn is a listener that yields one connection, then none: it hands a
// connection back to http.Server.Serve.
type oneConn struct {
	c     net.Conn
	taken bool
}

func (l *oneConn) Accept() (net.Conn, error) {
	if l.taken {
		return nil, net.ErrClosed
	}
	l.taken = true
	return l.c, nil
}

func (l *oneConn) Close() error   { return nil }
func (l *oneConn) Addr() net.Addr { return l.c.LocalAddr() }

// ownedWriter buffers one response whole.
type ownedWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *ownedWriter) Header() http.Header { return w.h }

func (w *ownedWriter) WriteHeader(code int) { w.code = cmp.Or(w.code, code) }

func (w *ownedWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}

// lazyBody is a request's body on an owned connection, which its handler
// reads from the connection as it would read net/http's: the bytes the loop
// has buffered, then the socket's. While a read waits for the client the
// connection is idle, so a shutdown closes a connection whose body stalls.
type lazyBody struct {
	c                *ownedConn
	io.LimitedReader // N: the declared bytes not read yet
	err              error
}

func (b *lazyBody) Read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	wait := b.N > 0 && b.c.br.Buffered() == 0 && b.c.state.CompareAndSwap(connBusy, connIdle)
	n, err := b.LimitedReader.Read(p)
	if wait {
		b.c.state.CompareAndSwap(connIdle, connBusy) // unless a shutdown closed the connection
	}
	if err == io.EOF && b.N > 0 {
		err = io.ErrUnexpectedEOF
	}
	b.err = err
	return n, err
}

func (b *lazyBody) Close() error { return nil }

// drain reads what a handler left of b, as net/http does: false, which
// closes the connection, when 256 KiB or more is left, the body failed, or
// it ends early and the handler did not read it to that end.
func (b *lazyBody) drain() bool {
	if b.N >= maxPostHandlerReadBytes {
		return false
	}
	if b.N == 0 || b.err == io.ErrUnexpectedEOF { // read to its end, or to where it ended early
		return true
	}
	_, err := io.Copy(io.Discard, b)
	return err == nil
}
