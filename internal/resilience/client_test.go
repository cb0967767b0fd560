package resilience

import (
	"errors"
	"math"
	"testing"

	"eventhit/internal/cloud"
	"eventhit/internal/video"
)

// Clock returns the client's simulated clock.
func (c *Client) Clock() *Clock { return c.clock }

// scriptBackend is a cloud.Backend whose responses follow a fixed script;
// the last step repeats once the script is exhausted.
type scriptStep struct {
	lat float64
	err error
}

type scriptBackend struct {
	perFrame float64
	steps    []scriptStep
	calls    int
}

func (s *scriptBackend) DetectTimed(eventType int, win video.Interval) (cloud.Detection, float64, error) {
	i := s.calls
	if i >= len(s.steps) {
		i = len(s.steps) - 1
	}
	s.calls++
	st := s.steps[i]
	return cloud.Detection{}, st.lat, st.err
}

func (s *scriptBackend) Usage() cloud.Usage  { return cloud.Usage{} }
func (s *scriptBackend) PerFrameMS() float64 { return s.perFrame }

// noJitter is a deterministic test config with jitter off, no breaker and no
// timeout, so elapsed times are exact closed-form sums.
func noJitter(maxAttempts int) Config {
	return Config{
		MaxAttempts: maxAttempts,
		Backoff:     Backoff{BaseMS: 50, MaxMS: 2000, Multiplier: 2},
	}
}

var testWin = video.Interval{Start: 0, End: 99} // 100 frames

func TestClientSuccessFirstAttempt(t *testing.T) {
	be := &scriptBackend{perFrame: 10, steps: []scriptStep{{lat: 1000}}}
	c := NewClient(be, noJitter(3), nil)
	res, err := c.Detect(0, testWin)
	if err != nil {
		t.Fatal(err)
	}
	if res.ElapsedMS != 1000 || res.Attempts != 1 || res.Retried || res.Deferred {
		t.Fatalf("result = %+v", res)
	}
	if c.Clock().NowMS() != 1000 {
		t.Fatalf("clock %v, want 1000", c.Clock().NowMS())
	}
	st := c.Stats()
	if st.Requests != 1 || st.Attempts != 1 || st.Failures != 0 || st.BusyMS != 1000 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestClientRetryAccounting pins the exact simulated cost of a
// fail-fail-succeed request under the jitter-free schedule: every failed
// attempt's latency AND every backoff wait is charged.
func TestClientRetryAccounting(t *testing.T) {
	be := &scriptBackend{perFrame: 10, steps: []scriptStep{
		{lat: 25, err: cloud.ErrUnavailable},
		{lat: 25, err: cloud.ErrUnavailable},
		{lat: 1000},
	}}
	c := NewClient(be, noJitter(3), nil)
	res, err := c.Detect(0, testWin)
	if err != nil {
		t.Fatal(err)
	}
	// 25 (fail) + 50 (backoff 1) + 25 (fail) + 100 (backoff 2) + 1000 (ok).
	const want = 25 + 50 + 25 + 100 + 1000
	if res.ElapsedMS != want {
		t.Fatalf("elapsed %v, want %v", res.ElapsedMS, want)
	}
	if !res.Retried || res.Attempts != 3 || res.Deferred {
		t.Fatalf("result = %+v", res)
	}
	st := c.Stats()
	if st.Failures != 2 || st.Retries != 1 || st.BackoffMS != 150 || st.BusyMS != want {
		t.Fatalf("stats = %+v", st)
	}
	if c.Clock().NowMS() != want {
		t.Fatalf("clock %v, want %v", c.Clock().NowMS(), want)
	}
}

func TestClientExhaustionDefers(t *testing.T) {
	be := &scriptBackend{perFrame: 10, steps: []scriptStep{{lat: 10, err: cloud.ErrUnavailable}}}
	c := NewClient(be, noJitter(3), nil)
	res, err := c.Detect(0, testWin)
	if err == nil || !errors.Is(err, cloud.ErrUnavailable) {
		t.Fatalf("want wrapped ErrUnavailable, got %v", err)
	}
	if !res.Deferred || res.Attempts != 3 {
		t.Fatalf("result = %+v", res)
	}
	// 3 failed attempts at 10 ms plus backoffs 50+100 (none after the last).
	const want = 3*10 + 50 + 100
	if res.ElapsedMS != want {
		t.Fatalf("elapsed %v, want %v", res.ElapsedMS, want)
	}
	st := c.Stats()
	if st.Deferred != 1 || st.Failures != 3 || st.Retries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestClientTimeout: an attempt whose simulated latency exceeds the cap is
// abandoned as a failure and charged exactly the cap.
func TestClientTimeout(t *testing.T) {
	be := &scriptBackend{perFrame: 10, steps: []scriptStep{
		{lat: 50000}, // would succeed, but far above the cap
		{lat: 900},
	}}
	cfg := noJitter(2)
	cfg.TimeoutFactor = 2 // cap = 2 * 100 frames * 10 ms = 2000 ms
	c := NewClient(be, cfg, nil)
	res, err := c.Detect(0, testWin)
	if err != nil {
		t.Fatal(err)
	}
	// 2000 (timed-out attempt at the cap) + 50 (backoff) + 900 (ok).
	const want = 2000 + 50 + 900
	if res.ElapsedMS != want || !res.Retried {
		t.Fatalf("result = %+v, want elapsed %v", res, want)
	}
	st := c.Stats()
	if st.Timeouts != 1 || st.Failures != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClientTimeoutFloor(t *testing.T) {
	be := &scriptBackend{perFrame: 10, steps: []scriptStep{{lat: 900}}}
	cfg := noJitter(1)
	cfg.TimeoutFactor = 2
	cfg.TimeoutFloorMS = 1000 // nominal cap would be 20 ms for a 1-frame win
	c := NewClient(be, cfg, nil)
	res, err := c.Detect(0, video.Interval{Start: 0, End: 0})
	if err != nil {
		t.Fatalf("floor should keep the tiny request alive: %v (res %+v)", err, res)
	}
	if res.ElapsedMS != 900 {
		t.Fatalf("elapsed %v, want 900", res.ElapsedMS)
	}
}

// TestClientBreakerOpenRejects: once consecutive failures trip the breaker,
// requests are rejected without touching the backend, and after the
// simulated cooldown a probe is admitted and recovery closes the breaker.
func TestClientBreakerOpenRejects(t *testing.T) {
	be := &scriptBackend{perFrame: 10, steps: []scriptStep{
		{lat: 10, err: cloud.ErrUnavailable}, {lat: 10, err: cloud.ErrUnavailable},
		{lat: 100}, {lat: 100},
	}}
	cfg := noJitter(1)
	cfg.Breaker = BreakerConfig{FailureThreshold: 2, CooldownMS: 5000, ProbeSuccesses: 2}
	c := NewClient(be, cfg, nil)

	for i := 0; i < 2; i++ {
		if _, err := c.Detect(0, testWin); err == nil {
			t.Fatal("scripted failure succeeded")
		}
	}
	if c.BreakerState() != Open {
		t.Fatalf("state %v after threshold failures, want open", c.BreakerState())
	}
	calls := be.calls
	res, err := c.Detect(0, testWin)
	if !errors.Is(err, ErrOpen) || !res.Deferred {
		t.Fatalf("open-breaker request: err=%v res=%+v", err, res)
	}
	if be.calls != calls {
		t.Fatal("open breaker still reached the backend")
	}
	if res.ElapsedMS != 0 {
		t.Fatalf("rejected request charged %v ms", res.ElapsedMS)
	}

	// Cooldown elapses on the simulated clock; the next two requests are
	// probes that close the breaker.
	c.Clock().Advance(5000)
	for i := 0; i < 2; i++ {
		if _, err := c.Detect(0, testWin); err != nil {
			t.Fatalf("probe %d failed: %v", i, err)
		}
	}
	if c.BreakerState() != Closed {
		t.Fatalf("state %v after probes, want closed", c.BreakerState())
	}
	st := c.Stats()
	if st.Trips != 1 || st.Deferred != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestClientBreakerTripsMidRequest: with a retry budget larger than the
// breaker threshold, the breaker opens between attempts of a single request
// and the remaining attempts are not made.
func TestClientBreakerTripsMidRequest(t *testing.T) {
	be := &scriptBackend{perFrame: 10, steps: []scriptStep{{lat: 10, err: cloud.ErrUnavailable}}}
	cfg := noJitter(10)
	cfg.Breaker = BreakerConfig{FailureThreshold: 3, CooldownMS: 1e12, ProbeSuccesses: 1}
	c := NewClient(be, cfg, nil)
	res, err := c.Detect(0, testWin)
	if !errors.Is(err, ErrOpen) || !res.Deferred {
		t.Fatalf("err=%v res=%+v", err, res)
	}
	if res.Attempts != 3 || be.calls != 3 {
		t.Fatalf("attempts %d / backend calls %d, want 3 each", res.Attempts, be.calls)
	}
}

// TestClientDeterministicElapsed: two clients with identical config and
// script charge bit-identical simulated time, jitter included.
func TestClientDeterministicElapsed(t *testing.T) {
	mk := func() *Client {
		be := &scriptBackend{perFrame: 10, steps: []scriptStep{
			{lat: 10, err: cloud.ErrUnavailable}, {lat: 1000},
			{lat: 10, err: cloud.ErrUnavailable}, {lat: 10, err: cloud.ErrUnavailable}, {lat: 1000},
			{lat: 500},
		}}
		cfg := DefaultConfig(42)
		return NewClient(be, cfg, nil)
	}
	a, b := mk(), mk()
	for i := 0; i < 3; i++ {
		ra, ea := a.Detect(0, testWin)
		rb, eb := b.Detect(0, testWin)
		if (ea == nil) != (eb == nil) || ra.ElapsedMS != rb.ElapsedMS {
			t.Fatalf("request %d diverged: %v/%v vs %v/%v", i, ra.ElapsedMS, ea, rb.ElapsedMS, eb)
		}
	}
	if a.Clock().NowMS() != b.Clock().NowMS() {
		t.Fatalf("clocks diverged: %v vs %v", a.Clock().NowMS(), b.Clock().NowMS())
	}
	if math.IsNaN(a.Clock().NowMS()) {
		t.Fatal("clock is NaN")
	}
}

func TestClockIgnoresNegative(t *testing.T) {
	c := NewClock()
	c.Advance(10)
	c.Advance(-5)
	if c.NowMS() != 10 {
		t.Fatalf("clock %v, want 10", c.NowMS())
	}
}
