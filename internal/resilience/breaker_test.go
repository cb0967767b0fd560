package resilience

import "testing"

// breakerStep is one event applied to the breaker in a scenario: either a
// request admission check at a given simulated time, or an attempt outcome.
type breakerStep struct {
	// op: "allow" (check admission at time nowMS, expect allowed),
	// "success", "failure" (record outcome; failure at time nowMS).
	op        string
	nowMS     float64
	allowed   bool  // expected Allow result (op == "allow")
	wantState State // expected state after the step
	wantTrips int64 // expected cumulative trip count after the step
}

func runBreakerScenario(t *testing.T, name string, steps []breakerStep) {
	t.Helper()
	var b Breaker
	for i, s := range steps {
		switch s.op {
		case "allow":
			if got := b.Allow(s.nowMS); got != s.allowed {
				t.Fatalf("%s step %d: Allow(%v) = %v, want %v", name, i, s.nowMS, got, s.allowed)
			}
		case "success":
			b.OnSuccess()
		case "failure":
			b.OnFailure(s.nowMS)
		default:
			t.Fatalf("%s step %d: bad op %q", name, i, s.op)
		}
		if b.State() != s.wantState {
			t.Fatalf("%s step %d (%s): state %v, want %v", name, i, s.op, b.State(), s.wantState)
		}
		if b.Trips() != s.wantTrips {
			t.Fatalf("%s step %d (%s): trips %d, want %d", name, i, s.op, b.Trips(), s.wantTrips)
		}
	}
}

// failures returns n consecutive failure steps at nowMS on a closed
// breaker that has tripped trips times: the breakerFailures-th trips it.
func failures(n int, nowMS float64, trips int64) []breakerStep {
	steps := make([]breakerStep, n)
	for i := range steps {
		steps[i] = breakerStep{op: "failure", nowMS: nowMS, wantState: Closed, wantTrips: trips}
		if i == breakerFailures-1 {
			steps[i].wantState, steps[i].wantTrips = Open, trips+1
		}
	}
	return steps
}

// TestBreakerScenarios drives the full state machine (5 failures trip it,
// 5000 ms of cooldown, 2 probes close it) through table-driven event
// sequences on an explicit simulated clock — no sleeps anywhere.
func TestBreakerScenarios(t *testing.T) {
	cat := func(parts ...[]breakerStep) []breakerStep {
		var out []breakerStep
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	scenarios := []struct {
		name  string
		steps []breakerStep
	}{
		{"closed-open-halfopen-closed", cat(
			[]breakerStep{{op: "allow", nowMS: 10, allowed: true, wantState: Closed}},
			// Five consecutive failures trip the breaker at t=30.
			failures(breakerFailures, 30, 0),
			[]breakerStep{
				// Rejected during the cooldown.
				{op: "allow", nowMS: 500, allowed: false, wantState: Open, wantTrips: 1},
				{op: "allow", nowMS: 5029, allowed: false, wantState: Open, wantTrips: 1},
				// Cooldown elapsed at t=5030: admitted as a half-open probe.
				{op: "allow", nowMS: 5030, allowed: true, wantState: HalfOpen, wantTrips: 1},
				{op: "success", wantState: HalfOpen, wantTrips: 1},
				// Second consecutive probe success closes the breaker.
				{op: "allow", nowMS: 5040, allowed: true, wantState: HalfOpen, wantTrips: 1},
				{op: "success", wantState: Closed, wantTrips: 1},
				{op: "allow", nowMS: 5050, allowed: true, wantState: Closed, wantTrips: 1},
			}),
		},
		{"probe-failure-reopens", cat(
			failures(breakerFailures, 0, 0),
			[]breakerStep{
				{op: "allow", nowMS: 5000, allowed: true, wantState: HalfOpen, wantTrips: 1},
				{op: "success", wantState: HalfOpen, wantTrips: 1},
				// A failure mid-probing re-opens immediately (trip #2) and
				// restarts the cooldown from the failure time.
				{op: "failure", nowMS: 5010, wantState: Open, wantTrips: 2},
				{op: "allow", nowMS: 9000, allowed: false, wantState: Open, wantTrips: 2},
				{op: "allow", nowMS: 10010, allowed: true, wantState: HalfOpen, wantTrips: 2},
				{op: "success", wantState: HalfOpen, wantTrips: 2},
				{op: "success", wantState: Closed, wantTrips: 2},
			}),
		},
		{"success-resets-failure-count", cat(
			failures(breakerFailures-1, 0, 0),
			[]breakerStep{{op: "success", wantState: Closed}},
			// The streak restarted: four more failures don't trip, the
			// fifth does.
			failures(breakerFailures, 1, 0),
		)},
	}
	for _, sc := range scenarios {
		runBreakerScenario(t, sc.name, sc.steps)
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{Closed: "closed", Open: "open", HalfOpen: "half-open", State(99): "unknown"} {
		if s.String() != want {
			t.Fatalf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}
