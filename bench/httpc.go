package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"eventhit/internal/serve"
)

// requestTimeout bounds one request on a gateway connection; a hung server
// fails the operation instead of hanging the run.
const requestTimeout = 30 * time.Second

// buildRequest returns the complete HTTP/1.1 request bytes. Everything a
// gateway sends in a timed region is built here during set-up, so the
// timed region encodes nothing.
func buildRequest(method, path string, body []byte) []byte {
	var b bytes.Buffer
	b.Grow(len(path) + len(body) + 96)
	b.WriteString(method)
	b.WriteByte(' ')
	b.WriteString(path)
	b.WriteString(" HTTP/1.1\r\nHost: bench\r\n")
	if method == http.MethodPost {
		b.WriteString("Content-Type: application/json\r\nContent-Length: ")
		b.WriteString(strconv.Itoa(len(body)))
		b.WriteString("\r\n")
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// framesBody JSON-encodes one POST …/frames body.
func framesBody(frames [][]float64) ([]byte, error) {
	return json.Marshal(serve.FramesRequest{Frames: frames})
}

// conn is one gateway's keep-alive connection. It writes prebuilt request
// bytes and parses the reply with net/http's response reader; it is used
// by one goroutine.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dialing %s: %w", addr, err)
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// do sends one request and returns the status and body of the reply. The
// body is valid until the next call.
func (c *conn) do(req []byte) (int, []byte, error) {
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// post is call for a POST whose reply does not matter beyond its status.
func (c *conn) post(path string, in interface{}) error {
	return c.call(http.MethodPost, path, in, nil)
}

// call is the set-up path: encode in, send, require 2xx, decode into out.
func (c *conn) call(method, path string, in, out interface{}) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	code, reply, err := c.do(buildRequest(method, path, body))
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code < 200 || code > 299 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, code, bytes.TrimSpace(reply))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(reply, out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	return nil
}
