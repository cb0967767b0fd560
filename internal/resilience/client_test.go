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

// noJitter is a client with the backoff jitter off, so elapsed times are
// exact closed-form sums.
func noJitter(be cloud.Backend, maxAttempts int) *Client {
	c := NewClient(be, Config{MaxAttempts: maxAttempts}, nil)
	c.backoff.jitterFrac = 0
	return c
}

var testWin = video.Interval{Start: 0, End: 99} // 100 frames

func TestClientSuccessFirstAttempt(t *testing.T) {
	be := &scriptBackend{perFrame: 10, steps: []scriptStep{{lat: 1000}}}
	c := noJitter(be, 3)
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
	c := noJitter(be, 3)
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
	c := noJitter(be, 3)
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
	c := noJitter(be, 2) // cap = 4 * 100 frames * 10 ms = 4000 ms
	res, err := c.Detect(0, testWin)
	if err != nil {
		t.Fatal(err)
	}
	// 4000 (timed-out attempt at the cap) + 50 (backoff) + 900 (ok).
	const want = 4000 + 50 + 900
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
	c := noJitter(be, 1) // nominal cap would be 40 ms for a 1-frame win
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
	be := &scriptBackend{perFrame: 10}
	for i := 0; i < breakerFailures; i++ {
		be.steps = append(be.steps, scriptStep{lat: 10, err: cloud.ErrUnavailable})
	}
	be.steps = append(be.steps, scriptStep{lat: 100})
	c := noJitter(be, 1)

	for i := 0; i < breakerFailures; i++ {
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
	c.Clock().Advance(breakerCooldownMS)
	for i := 0; i < breakerProbes; i++ {
		if _, err := c.Detect(0, testWin); err != nil {
			t.Fatalf("probe %d failed: %v", i, err)
		}
	}
	if c.BreakerState() != Closed {
		t.Fatalf("state %v after probes, want closed", c.BreakerState())
	}
	st := c.Stats()
	if st.Trips != 1 || st.Deferred != breakerFailures+1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestClientBreakerTripsMidRequest: with a retry budget larger than the
// breaker threshold, the breaker opens between attempts of a single request
// and the remaining attempts are not made.
func TestClientBreakerTripsMidRequest(t *testing.T) {
	be := &scriptBackend{perFrame: 10, steps: []scriptStep{{lat: 10, err: cloud.ErrUnavailable}}}
	c := noJitter(be, 10)
	res, err := c.Detect(0, testWin)
	if !errors.Is(err, ErrOpen) || !res.Deferred {
		t.Fatalf("err=%v res=%+v", err, res)
	}
	if res.Attempts != breakerFailures || be.calls != breakerFailures {
		t.Fatalf("attempts %d / backend calls %d, want %d each", res.Attempts, be.calls, breakerFailures)
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
		return NewClient(be, DefaultConfig(42), nil)
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
