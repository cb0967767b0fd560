package cluster

import (
	"bufio"
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
	br        *bufio.Reader
	bw        *bufio.Writer
	idleSince time.Time
	body      io.Reader // the request body in flight, read through Read,
	bodyErr   error     // and how reading it ended, io.EOF included
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
// passes the reply to read; an error not from read means no reply came. The
// exchange ends at the hop's timeout or when ctx is done. Its connection is
// pooled again only if the reply's body was read to its end, the upstream
// did not ask to close, and ctx stayed live.
func (h *hop) do(ctx context.Context, method, target, contentType string, body io.Reader, length int64, read func(*http.Response) error) error {
	deadline := time.Now().Add(h.timeout)
	c, err := h.take(ctx, deadline)
	if err != nil {
		return err
	}
	c.nc.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { c.nc.SetDeadline(time.Unix(1, 0)) })
	c.body, c.bodyErr = body, nil
	werr := c.send(method, target, h.addr, contentType, length)
	c.body = nil
	var resp *http.Response
	if werr == nil || c.bodyErr == nil {
		// After a failed write the upstream may have answered early (a 413
		// before the whole body); after a failed body it awaits the rest.
		resp, err = http.ReadResponse(c.br, nil)
	}
	reuse := false
	if resp != nil {
		err = read(resp)
		reuse = resp.Body.Close() == nil && werr == nil && !resp.Close
	} else if werr != nil {
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
		if reusable(c.nc, c.idleSince) {
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
	return &hopConn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}, nil
}
