package serve

import (
	"net/http/httptest"
	"strings"
	"testing"

	"eventhit/internal/cloud"
)

// newRelayServer builds a server that owns the CI relay, with the given
// fault plan on the simulated cloud service.
func newRelayServer(t *testing.T, plan cloud.FaultPlan) (*Client, *Bundlewrap, *cloud.Faulty) {
	t.Helper()
	bw := getBundle(t)
	ci := cloud.Inject(cloud.NewService(bw.st, cloud.RekognitionPricing(), cloud.DefaultLatency()), plan)
	srv := sessionServer(t, &Config{
		Bundle:            bw.b,
		EventNames:        []string{"Volleyball Spiking"},
		PerFrameUSD:       0.001,
		DefaultConfidence: 0.9,
		DefaultCoverage:   0.9,
		CI:                ci,
	}, 1)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client()), bw, ci
}

// pushImminentWindow streams every frame from the start of the stream to
// shortly before a true instance, so the server's absolute frame counter
// is aligned with true stream positions (its relay ranges then refer to
// real frames) and the 0.95-confidence prediction decides to relay.
func pushImminentWindow(t *testing.T, c *Client, bw *Bundlewrap) {
	t.Helper()
	in := bw.st.ByType[0][2]
	anchor := in.OI.Start - 20
	for lo := 0; lo <= anchor; lo += MaxFramesPerPush {
		hi := lo + MaxFramesPerPush - 1
		if hi > anchor {
			hi = anchor
		}
		frames := make([][]float64, 0, hi-lo+1)
		for f := lo; f <= hi; f++ {
			frames = append(frames, bw.ex.FrameVector(f, nil))
		}
		if _, err := c.PushFrames(tctx, "c0", frames); err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerRelaySuccess(t *testing.T) {
	c, bw, ci := newRelayServer(t, cloud.FaultPlan{})
	pushImminentWindow(t, c, bw)
	resp, err := c.Predict(tctx, "c0", 0.95, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	d := resp.Decisions[0]
	if !d.Relay {
		t.Fatalf("imminent event not relayed: %+v", d)
	}
	if d.Deferred {
		t.Fatalf("healthy CI deferred the relay: %+v", d)
	}
	if d.Detections == 0 {
		t.Fatalf("relay over an imminent instance found nothing: %+v", d)
	}
	st, err := c.Stats(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.RelayedOK != 1 || st.DeferredRelays != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CISpentUSD <= 0 || st.CIBusyMS <= 0 {
		t.Fatalf("relay not billed/timed: %+v", st)
	}
	if st.BreakerState != "closed" {
		t.Fatalf("breaker state %q, want closed", st.BreakerState)
	}
	if u := ci.Usage(); u.Frames != st.FramesToCloud {
		t.Fatalf("CI processed %d frames, decisions relayed %d", u.Frames, st.FramesToCloud)
	}
}

// TestServerRelayDegradesGracefully: a CI that never answers must not fail
// the predict request — the decision is served, marked deferred, and the
// health shows up in /v1/stats.
func TestServerRelayDegradesGracefully(t *testing.T) {
	c, bw, ci := newRelayServer(t, cloud.FaultPlan{Seed: 2, TransientRate: 1, FailLatencyMS: 5})
	pushImminentWindow(t, c, bw)
	resp, err := c.Predict(tctx, "c0", 0.95, 0.9)
	if err != nil {
		t.Fatalf("predict must not fail on CI outage: %v", err)
	}
	d := resp.Decisions[0]
	if !d.Relay || !d.Deferred || d.Detections != 0 {
		t.Fatalf("decision = %+v, want deferred relay with no detections", d)
	}
	st, err := c.Stats(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeferredRelays != 1 || st.RelayedOK != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.CIFailedAttempts == 0 || st.CIBackoffMS <= 0 {
		t.Fatalf("failed attempts not accounted: %+v", st)
	}
	if st.CISpentUSD != 0 {
		t.Fatalf("injected failures were billed: %+v", st)
	}
	if u := ci.Usage(); u.Frames != 0 {
		t.Fatalf("outage CI still processed %d frames", u.Frames)
	}
}

// TestServerRelayBreakerOpens: with repeated predicts against a dead CI,
// the breaker opens and later relays are rejected without backend
// attempts; the state is visible in stats.
func TestServerRelayBreakerOpens(t *testing.T) {
	c, bw, ci := newRelayServer(t, cloud.FaultPlan{Seed: 3, TransientRate: 1})
	pushImminentWindow(t, c, bw)
	for i := 0; i < 3; i++ {
		if _, err := c.Predict(tctx, "c0", 0.95, 0.9); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.BreakerState != "open" || st.BreakerTrips == 0 {
		t.Fatalf("breaker not open after persistent failures: %+v", st)
	}
	if st.DeferredRelays != 3 {
		t.Fatalf("deferred = %d, want every relay", st.DeferredRelays)
	}
	// The first relay burned its 3 attempts and the second 2 more: five
	// failures in a row trip the breaker, which rejects the second relay's
	// last attempt and the third relay without reaching the fault layer
	// (the backoff waits since the trip fall far short of its 5 s cooldown).
	if fs := ci.FaultStats(); fs.Requests != 5 {
		t.Fatalf("backend saw %d requests, want 5", fs.Requests)
	}
}

func TestCIEventsValidation(t *testing.T) {
	bw := getBundle(t)
	ci := cloud.NewService(bw.st, cloud.RekognitionPricing(), cloud.DefaultLatency())
	_, err := New(Config{
		Bundle:            bw.b,
		EventNames:        []string{"a"},
		DefaultConfidence: 0.9,
		DefaultCoverage:   0.9,
		CI:                ci,
		CIEvents:          []int{0, 1},
	})
	if err == nil || !strings.Contains(err.Error(), "CI event mappings") {
		t.Fatalf("expected CIEvents length error, got %v", err)
	}
	if _, err := New(Config{
		Bundle:            bw.b,
		EventNames:        []string{"a"},
		DefaultConfidence: 0.9,
		DefaultCoverage:   0.9,
		CI:                ci,
		CIEvents:          []int{0},
	}); err != nil {
		t.Fatalf("valid CIEvents rejected: %v", err)
	}
}
