package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
)

// Client is a small typed client for the marshalling service. Every method
// takes a context.Context: callers own the timeout/cancel policy per
// request — the cluster front tier depends on this to shed a slow worker
// instead of hanging its proxy path.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the server at base (e.g.
// "http://localhost:8080"). httpClient may be nil for the default.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: base, hc: httpClient}
}

// do issues one request with ctx attached and decodes the JSON response
// into out (nil out discards the body after the status check).
func (c *Client) do(ctx context.Context, method, path, contentType string, body io.Reader, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if l, ok := body.(interface{ Len() int }); ok {
		// NewRequest sizes only the reader types it knows by name; any other
		// body that can tell its length would go out chunked without this.
		req.ContentLength = int64(l.Len())
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

func (c *Client) post(ctx context.Context, path string, body, out interface{}) error {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
	}
	return c.do(ctx, http.MethodPost, path, "application/json", &buf, out)
}

func (c *Client) get(ctx context.Context, path string, out interface{}) error {
	return c.do(ctx, http.MethodGet, path, "", nil, out)
}

func decodeResponse(resp *http.Response, out interface{}) error {
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(b, &e) == nil && e.Error != "" {
			return fmt.Errorf("serve: %s (%d)", e.Error, resp.StatusCode)
		}
		return fmt.Errorf("serve: HTTP %d: %s", resp.StatusCode, b)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// framesBody is a frames POST body encoded into a pooled buffer. The
// transport may still be reading a request body after Do has returned (a
// server that answers early), so the buffer goes back to the pool on Close —
// which the transport calls exactly when it is done with the body — and
// never earlier.
type framesBody struct {
	bytes.Reader
	buf  *[]byte
	once sync.Once
}

var framesBodyPool = sync.Pool{New: func() interface{} { return new([]byte) }}

func (b *framesBody) Close() error {
	b.once.Do(func() {
		if cap(*b.buf) <= maxPooledIngestBytes {
			framesBodyPool.Put(b.buf)
		}
	})
	return nil
}

// encodeFrames writes frames in the canonical {"frames":[[…],…]} shape the
// server's scanner takes, each value as encoding/json writes it (see
// appendFloat). Like json.Marshal it refuses NaN and ±Inf, which JSON
// cannot carry.
func encodeFrames(frames [][]float64) (*framesBody, error) {
	buf := framesBodyPool.Get().(*[]byte)
	b := append((*buf)[:0], `{"frames":[`...)
	for i, f := range frames {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range f {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				framesBodyPool.Put(buf)
				return nil, fmt.Errorf("serve: frame %d channel %d is not finite", i, j)
			}
			if j > 0 {
				b = append(b, ',')
			}
			b = appendFloat(b, v)
		}
		b = append(b, ']')
	}
	b = append(b, "]}"...)
	*buf = b
	body := &framesBody{buf: buf}
	body.Reset(b)
	return body, nil
}

// appendFloat appends v as encoding/json writes a float64: the shortest
// form that parses back to the same bits, without an exponent for
// 1e-6 <= |v| < 1e21 (so a covariate in [0, 1] is the "0." and digits the
// scanner's vector front end takes), else with one whose "e-0d" loses the
// zero.
func appendFloat(b []byte, v float64) []byte {
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		b = strconv.AppendFloat(b, v, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, v, 'f', -1, 64)
}

// PushFrames sends covariate vectors to session id.
func (c *Client) PushFrames(ctx context.Context, id string, frames [][]float64) (FramesResponse, error) {
	var out FramesResponse
	body, err := encodeFrames(frames)
	if err != nil {
		return out, err
	}
	return out, c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/frames", "application/json", body, &out)
}

// Predict asks for session id's marshalling decision at its current
// anchor. confidence/coverage of 0 use the server defaults.
func (c *Client) Predict(ctx context.Context, id string, confidence, coverage float64) (PredictResponse, error) {
	var out PredictResponse
	err := c.post(ctx, "/v1/sessions/"+url.PathEscape(id)+"/predict"+predictQuery(confidence, coverage), nil, &out)
	return out, err
}

func predictQuery(confidence, coverage float64) string {
	q := url.Values{}
	if confidence > 0 {
		q.Set("confidence", fmt.Sprintf("%g", confidence))
	}
	if coverage > 0 {
		q.Set("coverage", fmt.Sprintf("%g", coverage))
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// CreateSession registers a new session and returns its id. An empty id
// asks the server to generate one.
func (c *Client) CreateSession(ctx context.Context, id string) (string, error) {
	var out SessionRequest
	err := c.post(ctx, "/v1/sessions", SessionRequest{ID: id}, &out)
	return out.ID, err
}

// DeleteSession removes a session and releases its fleet rate bucket.
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+url.PathEscape(id), "", nil, nil)
}

// Sessions lists every session's counters in creation order.
func (c *Client) Sessions(ctx context.Context) ([]SessionInfo, error) {
	var out []SessionInfo
	err := c.get(ctx, "/v1/sessions", &out)
	return out, err
}

// Healthy reports whether the health endpoint answers.
func (c *Client) Healthy(ctx context.Context) bool {
	return c.do(ctx, http.MethodGet, "/healthz", "", nil, nil) == nil
}
