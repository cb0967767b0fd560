package cluster

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// maxIdlePerHop caps the idle connections the front keeps to one upstream,
// and maxIdleTime how long one may wait for its next exchange.
const (
	maxIdlePerHop = 32
	maxIdleTime   = 90 * time.Second
	// hopTimeout bounds every proxied request: the front sheds a hung
	// worker by deadline, never by hanging its own caller.
	hopTimeout = 30 * time.Second
)

// hop is the front's HTTP/1.1 client for one upstream, a worker or the
// coordinator. It keeps a stack of idle keep-alive connections and runs each
// exchange in the calling goroutine, where http.Transport would hand request
// and reply to two goroutines per connection.
type hop struct {
	addr    string        // host:port, also the Host header
	timeout time.Duration // hopTimeout; this package's tests shorten it

	mu   sync.Mutex
	idle []*hopConn
}

type hopConn struct {
	nc        net.Conn
	check     *idleCheck // see reusable
	br        *bufio.Reader
	bw        *bufio.Writer
	idleSince time.Time
	body      io.Reader // the request body in flight, read through Read,
	bodyErr   error     // and how reading it ended, io.EOF included
	rp        reply     // the reply in flight
	data      bytes.Reader
}

// reply is an upstream's reply as read gets it: its status, its
// Content-Type as a header value (nil without one; shared, never written),
// and its body; data is the whole body when the hop read it ahead, valid
// until read returns.
type reply struct {
	status int
	ctype  []string
	body   io.Reader
	data   []byte
}

// newHop returns the hop to rawURL. The hop speaks plain HTTP/1.1 to the
// root of one address, so rawURL must be http://host:port.
func newHop(rawURL string) (*hop, error) {
	u, err := url.Parse(rawURL)
	if err != nil || u.Port() == "" || rawURL != "http://"+u.Host {
		return nil, fmt.Errorf("cluster: %q is not an http://host:port URL", rawURL)
	}
	return &hop{addr: u.Host, timeout: hopTimeout}, nil
}

// do sends one request, length body bytes or chunked when length < 0, and
// passes the reply to read; an error not from read means no whole reply
// came. The exchange ends at the hop's timeout or when ctx is done (a ctx
// that cannot be done costs no watch). Its connection is pooled again only
// if the reply's body was read to its end, the upstream did not ask to
// close, and ctx stayed live.
func (h *hop) do(ctx context.Context, method, target, contentType string, body io.Reader, length int64, read func(*reply) error) error {
	deadline := time.Now().Add(h.timeout)
	c, err := h.take(ctx, deadline)
	if err != nil {
		return err
	}
	c.nc.SetDeadline(deadline)
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { c.nc.SetDeadline(time.Unix(1, 0)) })
	}
	c.body, c.bodyErr = body, nil
	werr := c.send(method, target, h.addr, contentType, length)
	c.body = nil
	reuse := false
	if werr == nil || c.bodyErr == nil {
		// After a failed write the upstream may have answered early (a 413
		// before the whole body); after a failed body it awaits the rest.
		var n int
		var keep bool
		if n, keep, err = c.receive(); err == nil {
			err = read(&c.rp)
			c.br.Discard(n)
			if rc, ok := c.rp.body.(io.Closer); ok {
				keep = rc.Close() == nil && keep
			}
			reuse = werr == nil && keep
		}
		c.rp.body, c.rp.data = nil, nil
	} else {
		err = werr
	}
	c.idleSince = time.Now()
	h.mu.Lock()
	if reuse = stop() && reuse && len(h.idle) < maxIdlePerHop; reuse {
		h.idle = append(h.idle, c)
	}
	h.mu.Unlock()
	if !reuse {
		c.nc.Close()
	}
	return err
}

// receive reads a reply into c.rp: a head parseReply takes, with its body
// when it fits the buffer, as the n bytes ahead; any other through
// http.ReadResponse. keep is false when the upstream asked to close.
func (c *hopConn) receive() (n int, keep bool, err error) {
	var rh replyHead
	for {
		b, _ := c.br.Peek(c.br.Buffered())
		var more bool
		if rh, n, more = parseReply(b); !more || len(b) == c.br.Size() {
			break
		}
		if _, err = c.br.Peek(len(b) + 1); err != nil {
			break
		}
	}
	if n > 0 && n+rh.length <= c.br.Size() {
		b, err := c.br.Peek(n + rh.length)
		if err != nil {
			return 0, false, fmt.Errorf("reply cut short: %w", err)
		}
		if ct := c.rp.ctype; len(ct) != 1 || ct[0] != string(rh.ctype) {
			c.rp.ctype = []string{string(rh.ctype)}
		}
		c.data.Reset(b[n:])
		c.rp.status, c.rp.body, c.rp.data = rh.status, &c.data, b[n:]
		return n + rh.length, !rh.close, nil
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, false, err
	}
	c.rp = reply{status: resp.StatusCode, body: resp.Body}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		c.rp.ctype = []string{ct}
	}
	return 0, !resp.Close, nil
}

// replyHead is a reply head parseReply took.
type replyHead struct {
	status, length int
	ctype          []byte
	close          bool
}

// replyLines are the header lines of a strict reply head, in order; the
// last is optional.
var replyLines = [...]string{"Content-Type: ", "Date: ", "Content-Length: ", "Connection: close"}

// parseReply parses the reply head at the start of b when it is one an
// owned connection writes (serve's conn.go, frame), which is also what
// net/http writes for a handler that set only Content-Type and finished
// within its buffer: a status line with the status's own text, for a status
// that has a body, then exactly replyLines (a Content-Length of at most 9
// digits), CRLF line ends and printable ASCII. It returns the head's length;
// 0 declines the head, and 0 with more set asks for more bytes.
func parseReply(b []byte) (h replyHead, n int, more bool) {
	head, body, ok := bytes.Cut(b, []byte("\r\n\r\n"))
	if !ok {
		return h, 0, true
	}
	const proto = "HTTP/1.1 "
	line, head, _ := bytes.Cut(head, []byte("\r\n"))
	if len(line) < len(proto)+4 || string(line[:len(proto)]) != proto || line[len(proto)+3] != ' ' {
		return h, 0, false
	}
	for _, c := range line[len(proto) : len(proto)+3] {
		if c < '0' || c > '9' {
			return h, 0, false
		}
		h.status = h.status*10 + int(c-'0')
	}
	if h.status < 200 || h.status > 599 || h.status == 204 || h.status == 304 || string(line[len(proto)+4:]) != http.StatusText(h.status) {
		return h, 0, false
	}
	var v [len(replyLines)][]byte
	k := 0
	for ; k < len(v) && len(head) > 0; k++ {
		line, head, _ = bytes.Cut(head, []byte("\r\n"))
		if v[k], ok = bytes.CutPrefix(line, []byte(replyLines[k])); !ok || bytes.ContainsFunc(v[k], func(c rune) bool { return c < ' ' || c > '~' }) {
			return h, 0, false
		}
	}
	ct, cl := v[0], v[2]
	if k < 3 || len(head) > 0 || len(v[3]) > 0 || len(ct) == 0 || ct[0] == ' ' || ct[len(ct)-1] == ' ' || len(cl) == 0 || len(cl) > 9 {
		return h, 0, false
	}
	for _, c := range cl {
		if c < '0' || c > '9' {
			return h, 0, false
		}
		h.length = h.length*10 + int(c-'0')
	}
	h.ctype, h.close = ct, k == len(v)
	return h, len(b) - len(body), false
}

// Read reads the request body, keeping apart a body that failed from a
// failed write to the upstream.
func (c *hopConn) Read(p []byte) (int, error) {
	n, err := c.body.Read(p)
	if err != nil {
		c.bodyErr = err
	}
	return n, err
}

// send writes the request head by hand, then the body, then flushes once.
func (c *hopConn) send(method, target, host, contentType string, length int64) error {
	bw := c.bw
	bw.WriteString(method)
	bw.WriteByte(' ')
	bw.WriteString(target)
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(host)
	if contentType != "" {
		bw.WriteString("\r\nContent-Type: ")
		bw.WriteString(contentType)
	}
	if length < 0 {
		bw.WriteString("\r\nTransfer-Encoding: chunked\r\n\r\n")
		cw := httputil.NewChunkedWriter(bw)
		if _, err := io.Copy(cw, c); err != nil {
			return err
		}
		cw.Close()
		bw.WriteString("\r\n")
	} else {
		bw.WriteString("\r\nContent-Length: ")
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), length, 10))
		bw.WriteString("\r\n\r\n")
		if length > 0 {
			if _, err := io.CopyN(bw, c, length); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// take pops the latest idle connection still usable, or dials one.
func (h *hop) take(ctx context.Context, deadline time.Time) (*hopConn, error) {
	now := time.Now()
	h.mu.Lock()
	// The stack is oldest first: close what idled past maxIdleTime at its
	// bottom, which a busy top would otherwise keep open and unchecked.
	for len(h.idle) > 0 && now.Sub(h.idle[0].idleSince) > maxIdleTime {
		h.idle[0].nc.Close()
		h.idle[0], h.idle = nil, h.idle[1:]
	}
	for n := len(h.idle); n > 0; n = len(h.idle) {
		c := h.idle[n-1]
		h.idle[n-1], h.idle = nil, h.idle[:n-1]
		h.mu.Unlock()
		if c.reusable() {
			return c, nil
		}
		c.nc.Close()
		h.mu.Lock()
	}
	h.mu.Unlock()
	nc, err := (&net.Dialer{Deadline: deadline}).DialContext(ctx, "tcp", h.addr)
	if err != nil {
		return nil, err
	}
	return &hopConn{nc: nc, check: newIdleCheck(nc), br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}, nil
}
