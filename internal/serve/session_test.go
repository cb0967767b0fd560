package serve

import (
	"net/http/httptest"
	"strings"
	"testing"

	"eventhit/internal/fleet"
)

// relayWindow returns the 10-frame window ending right before an instance
// starts — the same setup TestPushAndPredictEndToEnd relies on to force a
// relay decision at confidence 0.95.
func relayWindow(bw *Bundlewrap) [][]float64 {
	in := bw.st.ByType[0][30]
	anchor := in.OI.Start - 20
	var frames [][]float64
	for f := anchor - 9; f <= anchor; f++ {
		frames = append(frames, bw.ex.FrameVector(f, nil))
	}
	return frames
}

// newFleetServer serves sessionServer's session "c0" over HTTP, with fc as
// its fleet arbiter.
func newFleetServer(t *testing.T, fc *fleet.ArbiterConfig) (*Client, *Bundlewrap) {
	t.Helper()
	bw := getBundle(t)
	srv := sessionServer(t, &Config{
		Bundle:            bw.b,
		EventNames:        []string{"Volleyball Spiking"},
		PerFrameUSD:       0.001,
		DefaultConfidence: 0.9,
		DefaultCoverage:   0.9,
		Fleet:             fc,
	}, 1)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client()), bw
}

func TestSessionLifecycle(t *testing.T) {
	c, bw := newFleetServer(t, nil)
	id, err := c.CreateSession(tctx, "cam-1")
	if err != nil || id != "cam-1" {
		t.Fatalf("create = %q, %v", id, err)
	}
	gen, err := c.CreateSession(tctx, "")
	if err != nil || gen == "" || gen == "cam-1" {
		t.Fatalf("generated id = %q, %v", gen, err)
	}
	if _, err := c.CreateSession(tctx, "cam-1"); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("duplicate accepted: %v", err)
	}

	// Feed cam-1 and predict there; c0 must stay empty.
	if _, err := c.PushFrames(tctx, "cam-1", relayWindow(bw)); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Predict(tctx, "cam-1", 0.95, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Decisions) != 1 || !resp.Decisions[0].Relay {
		t.Fatalf("imminent event not relayed on cam-1: %+v", resp.Decisions)
	}
	if _, err := c.Predict(tctx, "c0", 0.95, 0.9); err == nil || !strings.Contains(err.Error(), "window not full") {
		t.Fatalf("c0 shared cam-1's buffer: %v", err)
	}

	list, err := c.Sessions(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 || list[0].ID != "c0" || list[1].ID != "cam-1" || list[2].ID != gen {
		t.Fatalf("session list = %+v", list)
	}
	if list[1].Predictions != 1 || list[1].Relays != 1 || list[0].Predictions != 0 {
		t.Fatalf("per-session counters wrong: %+v", list)
	}

	st, err := c.Stats(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 3 || st.Predictions != 1 || st.Relays != 1 {
		t.Fatalf("stats do not total sessions: %+v", st)
	}
}

func TestSessionUnknownIs404(t *testing.T) {
	c, bw := newFleetServer(t, nil)
	if _, err := c.PushFrames(tctx, "ghost", relayWindow(bw)); err == nil || !strings.Contains(err.Error(), "unknown session") {
		t.Fatalf("push to unknown session: %v", err)
	}
	if _, err := c.Predict(tctx, "ghost", 0, 0); err == nil || !strings.Contains(err.Error(), "unknown session") {
		t.Fatalf("predict on unknown session: %v", err)
	}
}

// TestFleetAdmissionGate: with a spend cap below one relay's cost, the
// decision is still served but marked deferred, nothing counts as sent to
// the cloud, and the admission counters say why.
func TestFleetAdmissionGate(t *testing.T) {
	c, bw := newFleetServer(t, &fleet.ArbiterConfig{
		PerFrameUSD:     0.001,
		GlobalBudgetUSD: 0.0001, // below any non-empty relay
	})
	if _, err := c.PushFrames(tctx, "c0", relayWindow(bw)); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Predict(tctx, "c0", 0.95, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	d := resp.Decisions[0]
	if !d.Relay || !d.Deferred {
		t.Fatalf("capped relay not deferred: %+v", d)
	}
	st, err := c.Stats(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FleetEnabled || st.BudgetUSD != 0.0001 {
		t.Fatalf("fleet fields missing: %+v", st)
	}
	if st.AdmissionDeferred != 1 || st.FramesToCloud != 0 || st.EstimatedUSD != 0 || st.AdmittedUSD != 0 {
		t.Fatalf("declined relay leaked into spend accounting: %+v", st)
	}
}

// TestFleetAdmissionAllows: a generous budget admits the same relay and
// charges it.
func TestFleetAdmissionAllows(t *testing.T) {
	c, bw := newFleetServer(t, &fleet.ArbiterConfig{
		PerFrameUSD:     0.001,
		GlobalBudgetUSD: 100,
	})
	if _, err := c.PushFrames(tctx, "c0", relayWindow(bw)); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Predict(tctx, "c0", 0.95, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	d := resp.Decisions[0]
	if !d.Relay || d.Deferred {
		t.Fatalf("affordable relay deferred: %+v", d)
	}
	st, err := c.Stats(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.AdmissionDeferred != 0 || st.FramesToCloud == 0 || st.AdmittedUSD <= 0 {
		t.Fatalf("admitted relay not charged: %+v", st)
	}
	if st.AdmittedUSD != float64(st.FramesToCloud)*0.001 {
		t.Fatalf("arbiter and serve spend disagree: %+v", st)
	}
}

// TestSessionDelete covers the DELETE endpoint: a deleted session vanishes
// from the list, its buffered frames are gone if recreated, and unknown ids
// are 404.
func TestSessionDelete(t *testing.T) {
	c, bw := newFleetServer(t, &fleet.ArbiterConfig{
		PerFrameUSD:       0.001,
		SessionRatePerSec: 1,
		SessionBurst:      100000,
	})
	if id, err := c.CreateSession(tctx, "cam-1"); err != nil || id != "cam-1" {
		t.Fatalf("create = %q, %v", id, err)
	}
	if _, err := c.PushFrames(tctx, "cam-1", relayWindow(bw)); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteSession(tctx, "cam-1"); err != nil {
		t.Fatal(err)
	}
	list, err := c.Sessions(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != "c0" {
		t.Fatalf("deleted session still listed: %+v", list)
	}
	// A fresh session under the same id has no leftover buffer.
	if _, err := c.CreateSession(tctx, "cam-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Predict(tctx, "cam-1", 0.95, 0.9); err == nil ||
		!strings.Contains(err.Error(), "window not full") {
		t.Fatalf("recreated session inherited the old buffer: %v", err)
	}
	if err := c.DeleteSession(tctx, "never-created"); err == nil || !strings.Contains(err.Error(), "404") &&
		!strings.Contains(err.Error(), "unknown session") {
		t.Fatalf("unknown delete = %v", err)
	}
}

// TestSessionDeleteReleasesBucket: a session that drained its admission
// bucket gets a fresh one after delete + recreate — the arbiter state was
// released, not leaked.
func TestSessionDeleteReleasesBucket(t *testing.T) {
	c, bw := newFleetServer(t, &fleet.ArbiterConfig{
		PerFrameUSD:       0.001,
		SessionRatePerSec: 0.001, // effectively no refill within the test
		SessionBurst:      250,   // one 200-frame relay's worth, not two
	})
	predictOnce := func() Decision {
		t.Helper()
		if _, err := c.PushFrames(tctx, "cam-1", relayWindow(bw)); err != nil {
			t.Fatal(err)
		}
		resp, err := c.Predict(tctx, "cam-1", 0.95, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Decisions[0]
	}
	if _, err := c.CreateSession(tctx, "cam-1"); err != nil {
		t.Fatal(err)
	}
	if d := predictOnce(); !d.Relay || d.Deferred {
		t.Fatalf("first relay not admitted: %+v", d)
	}
	if d := predictOnce(); !d.Relay || !d.Deferred {
		t.Fatalf("drained bucket still admitted: %+v", d)
	}
	if err := c.DeleteSession(tctx, "cam-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(tctx, "cam-1"); err != nil {
		t.Fatal(err)
	}
	if d := predictOnce(); !d.Relay || d.Deferred {
		t.Fatalf("recreated session did not get a fresh bucket: %+v", d)
	}
}
