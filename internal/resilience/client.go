package resilience

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/video"
)

// ErrOpen is returned (wrapped) when the circuit breaker rejects a request
// without attempting it.
var ErrOpen = errors.New("resilience: circuit open")

// ErrTimeout is returned (wrapped) when an attempt's simulated latency
// exceeded the per-request timeout.
var ErrTimeout = errors.New("resilience: request timed out")

// Config parametrizes the resilient CI client. The rest of its policy is
// fixed: the backoff schedule (backoff.go), the breaker (breaker.go) and
// the per-attempt timeout below.
type Config struct {
	// MaxAttempts is the total number of tries per request (minimum 1).
	MaxAttempts int
	// Seed keys the backoff jitter draws.
	Seed int64
}

// An attempt's simulated latency is capped at timeoutFactor times the
// nominal latency (frames x PerFrameMS), never under timeoutFloorMS; an
// attempt that would take longer is abandoned as a timeout failure after
// exactly the cap.
const (
	timeoutFactor  = 4
	timeoutFloorMS = 1000
)

// DefaultConfig returns the production posture: 3 attempts per request.
func DefaultConfig(seed int64) Config {
	return Config{MaxAttempts: 3, Seed: seed}
}

// Stats are the client's cumulative counters. All times are simulated ms.
type Stats struct {
	Requests int64 // Detect calls
	Attempts int64 // backend calls actually made
	Failures int64 // failed attempts (transient, outage, timeout)
	Retries  int64 // requests that failed at least once then succeeded
	Timeouts int64 // attempts abandoned at the latency cap
	Deferred int64 // requests rejected or abandoned to degradation
	Trips    int64 // breaker closed->open transitions
	// BackoffMS is the total wait between attempts; BusyMS is the total
	// simulated time consumed (attempt latencies, successful or not, plus
	// backoff waits) — what the pipeline charges as CI time.
	BackoffMS float64
	BusyMS    float64
}

// Result is the outcome of one resilient Detect call.
type Result struct {
	Det cloud.Detection
	// ElapsedMS is the simulated time this call consumed: every attempt's
	// latency (failed ones included) plus the backoff waits between them.
	ElapsedMS float64
	// Attempts is how many backend calls were made.
	Attempts int
	// Retried reports a success that needed more than one attempt.
	Retried bool
	// Deferred reports that no answer was obtained: the breaker was open,
	// or every attempt failed. The caller decides whether to degrade
	// (treat as a skipped relay) or abort.
	Deferred bool
}

// Client wraps a cloud.Backend with retry, backoff, timeout and circuit
// breaking on a simulated clock. Safe for concurrent use (calls are
// serialized, matching the serial CI channel the pipeline models).
type Client struct {
	backend cloud.Backend
	cfg     Config
	clock   *Clock
	breaker *Breaker
	backoff backoff

	mu       sync.Mutex
	requests int64
	stats    Stats
}

// NewClient assembles a client. clock may be shared with the caller (the
// pipeline advances it for scan/predict time so breaker cooldowns elapse
// on the same timeline); nil creates a private clock.
func NewClient(backend cloud.Backend, cfg Config, clock *Clock) *Client {
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = 1
	}
	if clock == nil {
		clock = NewClock()
	}
	return &Client{backend: backend, cfg: cfg, clock: clock, breaker: &Breaker{}, backoff: defaultBackoff()}
}

// BreakerState returns the breaker's current state.
func (c *Client) BreakerState() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breaker.State()
}

// Stats returns a snapshot of the cumulative counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Trips = c.breaker.Trips()
	return s
}

// Detect performs one resilient CI request. On success the Result carries
// the detection and the simulated time consumed. On failure the error is
// non-nil and Result.Deferred is true: the breaker rejected the request
// (errors.Is(err, ErrOpen)) or every attempt failed (the error wraps the
// last attempt's cause). Either way ElapsedMS has already been charged to
// the clock.
func (c *Client) Detect(eventType int, win video.Interval) (Result, error) {
	return c.detect(win, func() (cloud.Detection, float64, error) {
		return c.backend.DetectTimed(eventType, win)
	})
}

// DetectKeyed is Detect routed through the backend's content-addressed
// surface (cloud.KeyedDetector) so a caching backend can dedup by the
// caller-supplied key. A cache hit behaves as an instantly successful
// attempt: zero latency charged, the breaker sees a success. Backends
// without the keyed surface fall back to the plain path.
func (c *Client) DetectKeyed(key cicache.Key, eventType int, win video.Interval) (Result, error) {
	kb, ok := c.backend.(cloud.KeyedDetector)
	if !ok {
		return c.Detect(eventType, win)
	}
	return c.detect(win, func() (cloud.Detection, float64, error) {
		return kb.DetectTimedKeyed(key, eventType, win)
	})
}

// detect is the shared retry/backoff/timeout/breaker engine; call performs
// one backend attempt.
func (c *Client) detect(win video.Interval, call func() (cloud.Detection, float64, error)) (Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	req := c.requests
	c.requests++
	c.stats.Requests++

	var res Result
	if !c.breaker.Allow(c.clock.NowMS()) {
		c.stats.Deferred++
		res.Deferred = true
		return res, fmt.Errorf("resilience: request %d: %w", req, ErrOpen)
	}

	timeout := math.Max(timeoutFactor*float64(win.Len())*c.backend.PerFrameMS(), timeoutFloorMS)

	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if attempt > 1 && !c.breaker.Allow(c.clock.NowMS()) {
			// The breaker tripped on an earlier attempt of this request.
			c.stats.Deferred++
			res.Deferred = true
			return res, fmt.Errorf("resilience: request %d after %d attempts: %w", req, res.Attempts, ErrOpen)
		}
		det, lat, err := call()
		res.Attempts++
		c.stats.Attempts++
		if lat > timeout {
			// Abandoned at the cap. Note the backend may still have
			// processed (and billed) the request — giving up does not
			// refund it, which keeps the cost accounting honest.
			if err == nil {
				err = fmt.Errorf("resilience: request %d attempt %d: latency %.0fms > %.0fms: %w",
					req, attempt, lat, timeout, ErrTimeout)
				c.stats.Timeouts++
			}
			lat = timeout
		}
		c.clock.Advance(lat)
		res.ElapsedMS += lat
		c.stats.BusyMS += lat
		if err == nil {
			c.breaker.OnSuccess()
			res.Det = det
			res.Retried = attempt > 1
			if res.Retried {
				c.stats.Retries++
			}
			return res, nil
		}
		c.stats.Failures++
		c.breaker.OnFailure(c.clock.NowMS())
		lastErr = err
		if attempt < c.cfg.MaxAttempts {
			w := c.backoff.waitMS(c.cfg.Seed, req, int64(attempt))
			c.clock.Advance(w)
			res.ElapsedMS += w
			c.stats.BackoffMS += w
			c.stats.BusyMS += w
		}
	}
	c.stats.Deferred++
	res.Deferred = true
	return res, fmt.Errorf("resilience: CI failed after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}
