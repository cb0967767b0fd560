package resilience

// State is a circuit breaker state.
type State int

const (
	// Closed: requests flow; consecutive failures are counted.
	Closed State = iota
	// Open: requests are rejected until the cooldown elapses.
	Open
	// HalfOpen: a limited number of probe requests are admitted; enough
	// consecutive successes close the breaker, any failure re-opens it.
	HalfOpen
)

// String returns the conventional lowercase state name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// The breaker trips after 5 consecutive failures, cools down for 5
// simulated seconds and closes after 2 successful probes.
const (
	breakerFailures   = 5
	breakerCooldownMS = 5000
	breakerProbes     = 2
)

// Breaker is the circuit breaker state machine. It is driven explicitly —
// Allow before a request, OnSuccess/OnFailure after — against a simulated
// clock, so state transitions are exact and testable without sleeping.
// The zero value is a closed breaker. Not safe for concurrent use; the
// Client serializes access.
type Breaker struct {
	state    State
	fails    int     // consecutive failures while Closed
	probes   int     // consecutive successes while HalfOpen
	openedAt float64 // simulated time of the last trip
	trips    int64
}

// State returns the current state (transitions Open -> HalfOpen happen in
// Allow, so an Open breaker reports Open until a request is attempted
// after the cooldown).
func (b *Breaker) State() State { return b.state }

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() int64 { return b.trips }

// Allow reports whether a request may proceed at simulated time nowMS. An
// Open breaker whose cooldown has elapsed transitions to HalfOpen and
// admits the request as a probe.
func (b *Breaker) Allow(nowMS float64) bool {
	switch b.state {
	case Closed, HalfOpen:
		return true
	case Open:
		if nowMS-b.openedAt >= breakerCooldownMS {
			b.state = HalfOpen
			b.probes = 0
			return true
		}
		return false
	}
	return true
}

// OnSuccess records a successful attempt.
func (b *Breaker) OnSuccess() {
	switch b.state {
	case Closed:
		b.fails = 0
	case HalfOpen:
		b.probes++
		if b.probes >= breakerProbes {
			b.state = Closed
			b.fails = 0
		}
	}
}

// OnFailure records a failed attempt at simulated time nowMS. A HalfOpen
// probe failure re-opens immediately; Closed failures trip once the
// consecutive count reaches the threshold.
func (b *Breaker) OnFailure(nowMS float64) {
	switch b.state {
	case Closed:
		b.fails++
		if b.fails >= breakerFailures {
			b.trip(nowMS)
		}
	case HalfOpen:
		b.trip(nowMS)
	}
}

func (b *Breaker) trip(nowMS float64) {
	b.state = Open
	b.openedAt = nowMS
	b.fails = 0
	b.probes = 0
	b.trips++
}
