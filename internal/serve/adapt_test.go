package serve

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"eventhit/internal/cloud"
	"eventhit/internal/features"
	"eventhit/internal/video"
)

// adaptFixture is one session of a full induced-shift scenario: a server
// that owns the CI relay with adaptation on, fed by a drifting extractor
// over the shared test stream (the default session), or by the clean one
// (a bystander).
type adaptFixture struct {
	t       *testing.T
	c       *Client
	bw      *Bundlewrap
	ex      *features.Extractor
	session string
	next    int // absolute index of the next frame to push
}

const adaptSwitchFrame = 20000

func newAdaptFixture(t *testing.T) *adaptFixture {
	t.Helper()
	bw := getBundle(t)
	// Same clean detector and seed as the bundle's training extractor, so
	// pre-switch covariates are identical to what the model was calibrated
	// on; after the switch the detector degrades the way the drift
	// experiment harness degrades it — misses and washed-out cues destroy
	// the positive-window signal while the stream truth stays intact
	// (covariate drift, which is what collapses conformal coverage).
	clean := features.DefaultDetector()
	degraded := features.DetectorConfig{
		Jitter:   clean.Jitter,
		MissRate: 0.9,
		FPRate:   clean.FPRate,
		CueGain:  0.25,
	}
	ex, err := features.NewDriftingExtractor(bw.st, []int{0}, clean, degraded, adaptSwitchFrame, 1)
	if err != nil {
		t.Fatal(err)
	}
	ci := cloud.NewService(bw.st, cloud.RekognitionPricing(), cloud.DefaultLatency())
	srv := sessionServer(t, &Config{
		Bundle:            bw.b,
		EventNames:        []string{"Volleyball Spiking"},
		PerFrameUSD:       0.001,
		DefaultConfidence: 0.9,
		DefaultCoverage:   0.9,
		CI:                ci,
		Adapt:             &AdaptConfig{AuditRate: 1},
	}, 1)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &adaptFixture{t: t, c: NewClient(ts.URL, ts.Client()), bw: bw, ex: ex, session: "c0"}
}

// bystander opens a second session on fx's server, fed the clean stream
// from frame 0 through 999.
func (fx *adaptFixture) bystander() *adaptFixture {
	fx.t.Helper()
	if _, err := fx.c.CreateSession(tctx, "bystander"); err != nil {
		fx.t.Fatal(err)
	}
	by := &adaptFixture{t: fx.t, c: fx.c, bw: fx.bw, ex: fx.bw.ex, session: "bystander"}
	by.advance(999)
	return by
}

// advance pushes every frame from the current position through frame `to`
// inclusive, keeping the server's absolute frame counter aligned with true
// stream positions (so relays and audits hit real truth).
func (fx *adaptFixture) advance(to int) {
	fx.t.Helper()
	for fx.next <= to {
		hi := fx.next + MaxFramesPerPush - 1
		if hi > to {
			hi = to
		}
		frames := make([][]float64, 0, hi-fx.next+1)
		for f := fx.next; f <= hi; f++ {
			frames = append(frames, fx.ex.FrameVector(f, nil))
		}
		if _, err := fx.c.PushFrames(tctx, fx.session, frames); err != nil {
			fx.t.Fatal(err)
		}
		fx.next = hi + 1
	}
}

// walk predicts at `n` anchors spaced `stride` frames apart starting at
// the current position, and returns realized positive coverage measured
// against the true stream (occurrences kept / occurrences), plus the
// decision transcript for determinism comparison.
func (fx *adaptFixture) walk(n, stride int) (coverage float64, occurred int, transcript []bool) {
	fx.t.Helper()
	kept := 0
	for i := 0; i < n; i++ {
		anchor := fx.next - 1 + stride
		fx.advance(anchor)
		resp, err := fx.c.Predict(tctx, fx.session, 0, 0)
		if err != nil {
			fx.t.Fatal(err)
		}
		relay := resp.Decisions[0].Relay
		transcript = append(transcript, relay)
		hz := video.Interval{Start: anchor + 1, End: anchor + 200}
		if _, up := fx.bw.st.FirstOverlapping(0, hz); up {
			occurred++
			if relay {
				kept++
			}
		}
	}
	if occurred == 0 {
		return 1, 0, transcript
	}
	return float64(kept) / float64(occurred), occurred, transcript
}

type adaptOutcome struct {
	covClean, covShift, covRestored float64
	transcript                      []bool
	// bystander is the decision transcript of a second session on the same
	// server, fed the clean stream one anchor per phase-2 step and 40 more
	// after phase 3: it decides while the drifting session recalibrates.
	bystander []bool
	stats     Stats
}

func runAdaptScenario(t *testing.T) adaptOutcome {
	t.Helper()
	fx := newAdaptFixture(t)
	by := fx.bystander()
	var out adaptOutcome

	// Phase 1 — clean regime: coverage near nominal, no alarms.
	fx.advance(999)
	var tr []bool
	out.covClean, _, tr = fx.walk(80, 50)
	out.transcript = append(out.transcript, tr...)
	st, err := fx.c.Stats(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.DriftAlarmEpisodes != 0 || st.RecalibrationSwaps != 0 {
		t.Fatalf("clean phase raised alarms: %+v", st)
	}

	// Phase 2 — the detector degrades at adaptSwitchFrame: coverage
	// collapses under the stale calibration, the monitor opens exactly one
	// episode, and once 48 post-alarm outcomes are buffered the loop
	// cuts and swaps a fresh calibration. Walk anchor by anchor until the
	// swap lands so the shifted-coverage measurement is purely pre-swap.
	fx.advance(adaptSwitchFrame + 149)
	kept, occurred := 0, 0
	swapped := false
	for i := 0; i < 200 && !swapped; i++ {
		cov, occ, step := fx.walk(1, 50)
		out.transcript = append(out.transcript, step...)
		occurred += occ
		kept += int(cov * float64(occ))
		_, _, step = by.walk(1, 50)
		out.bystander = append(out.bystander, step...)
		st, err = fx.c.Stats(tctx)
		if err != nil {
			t.Fatal(err)
		}
		swapped = st.RecalibrationSwaps > 0
	}
	if !swapped {
		t.Fatalf("no recalibration swap within 200 post-shift anchors: %+v", st)
	}
	if occurred == 0 {
		t.Fatal("no occurrences in the shifted phase")
	}
	out.covShift = float64(kept) / float64(occurred)
	if st.DriftAlarmEpisodes != 1 {
		t.Fatalf("alarm episodes = %d, want exactly 1 (stats %+v)", st.DriftAlarmEpisodes, st)
	}
	if st.RecalibrationSwaps != 1 {
		t.Fatalf("recalibration swaps = %d, want 1 (deferred %d)", st.RecalibrationSwaps, st.RecalibrationsDeferred)
	}
	if st.ModelGeneration == 0 || st.AdminSwaps != 0 {
		t.Fatalf("swap bookkeeping wrong: %+v", st)
	}
	if st.DriftAudits == 0 || st.DriftAuditFrames == 0 {
		t.Fatalf("audits never fired: %+v", st)
	}

	// Phase 3 — still degraded, now on the recalibrated bundle.
	out.covRestored, _, tr = fx.walk(100, 50)
	out.transcript = append(out.transcript, tr...)
	_, _, tr = by.walk(40, 50)
	out.bystander = append(out.bystander, tr...)
	out.stats, err = fx.c.Stats(tctx)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAdaptationRestoresCoverage is the acceptance scenario for the online
// adaptation loop: an induced covariate shift collapses realized coverage
// past the alarm line, the monitor raises exactly one episode, an
// automatic recalibration+swap fires, and post-swap coverage climbs back
// toward the nominal target — all without a single failed request.
func TestAdaptationRestoresCoverage(t *testing.T) {
	out := runAdaptScenario(t)
	t.Logf("coverage clean %.3f, shifted %.3f, restored %.3f; stats %+v",
		out.covClean, out.covShift, out.covRestored, out.stats)
	if out.covClean < 0.7 {
		t.Fatalf("clean coverage %.3f below sanity floor", out.covClean)
	}
	if out.covShift >= out.covClean-0.2 {
		t.Fatalf("induced shift did not degrade coverage: clean %.3f, shifted %.3f", out.covClean, out.covShift)
	}
	// Nominal target is 0.9; accept a 0.2 tolerance on the restored regime
	// (the recalibration is cut from a few dozen degraded-score outcomes).
	if out.covRestored < 0.7 {
		t.Fatalf("post-swap coverage %.3f not restored toward target 0.9 (shifted was %.3f)",
			out.covRestored, out.covShift)
	}
	if out.covRestored <= out.covShift {
		t.Fatalf("recalibration did not improve coverage: %.3f -> %.3f", out.covShift, out.covRestored)
	}
	if out.stats.DriftAlarmEpisodes != 1 {
		t.Fatalf("episodes grew after recalibration: %+v", out.stats)
	}
	// One camera's drift never moves another's calibration: the bystander
	// decided on the clean stream while the drifting session recalibrated,
	// and a fresh server fed the same frames decides exactly as it did.
	_, _, want := newAdaptFixture(t).bystander().walk(len(out.bystander), 50)
	for i := range want {
		if out.bystander[i] != want[i] {
			t.Fatalf("bystander decision %d of %d is %v beside the recalibrating session, %v on a fresh server",
				i, len(want), out.bystander[i], want[i])
		}
	}
}

// TestAdaptationDeterministic runs the full induced-shift scenario twice
// against fresh servers: decision transcripts and final stats must match
// byte for byte (the CI clock is simulated; nothing on the adaptation path
// may consult wall time or unseeded randomness).
func TestAdaptationDeterministic(t *testing.T) {
	a := runAdaptScenario(t)
	b := runAdaptScenario(t)
	if len(a.transcript) != len(b.transcript) {
		t.Fatalf("transcript lengths differ: %d vs %d", len(a.transcript), len(b.transcript))
	}
	for i := range a.transcript {
		if a.transcript[i] != b.transcript[i] {
			t.Fatalf("decision %d differs between runs", i)
		}
	}
	aj, err := json.Marshal(a.stats)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b.stats)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("stats differ between runs:\n%s\n%s", aj, bj)
	}
}

// scriptedCI is a CI whose every answer the test sets: the event present
// over the whole requested range, absent, or a failed request.
type scriptedCI struct{ verdict string }

func (c *scriptedCI) DetectTimed(eventType int, win video.Interval) (cloud.Detection, float64, error) {
	switch c.verdict {
	case "present":
		return cloud.Detection{Found: []video.Interval{win}}, 0, nil
	case "absent":
		return cloud.Detection{}, 0, nil
	}
	return cloud.Detection{}, 0, cloud.ErrUnavailable
}
func (c *scriptedCI) Usage() cloud.Usage  { return cloud.Usage{} }
func (c *scriptedCI) PerFrameMS() float64 { return 1 }

// TestRecalibrationsDeferredCountsAttempts: a deferred rebuild is retried by
// the next labelled outcome only. The window's decision is a skip that every
// predict audits, so the test scripts each label: the event present until
// the monitor opens an episode, absent until 48 negatives make the
// rebuild defer, then the CI fails and predicts come back unlabelled. The
// deferred count must not grow with them (it used to grow by one per
// predict).
func TestRecalibrationsDeferredCountsAttempts(t *testing.T) {
	bw := getBundle(t)
	ci := &scriptedCI{verdict: "present"}
	srv := sessionServer(t, &Config{
		Bundle: bw.b, EventNames: []string{"Volleyball Spiking"}, PerFrameUSD: 0.001,
		DefaultConfidence: 0.9, DefaultCoverage: 0.9, CI: ci,
		Adapt: &AdaptConfig{AuditRate: 1},
	}, 1)
	pushTo(t, srv, "c0", bw.ex, 300, 309)
	predictUntil := func(phase string, done func(Stats) bool) Stats {
		t.Helper()
		for i := 0; i < 50; i++ {
			resp, err := predictSession(srv, "c0")
			if err != nil {
				t.Fatal(err)
			}
			if resp.Decisions[0].Relay {
				t.Fatal("the window's decision relays; the test needs a skip")
			}
			if st := srv.snapshot(); done(st) {
				return st
			}
		}
		t.Fatalf("%s: not reached in 50 predicts: %+v", phase, srv.snapshot())
		return Stats{}
	}
	predictUntil("episode", func(st Stats) bool { return st.DriftAlarmEpisodes == 1 })
	ci.verdict = "absent"
	st := predictUntil("deferral", func(st Stats) bool { return st.RecalibrationsDeferred > 0 })
	if st.RecalibrationsDeferred != 1 || st.RecalibrationSwaps != 0 {
		t.Fatalf("after the first deferral: %+v", st)
	}
	ci.verdict = "down"
	audits := st.DriftAudits
	for i := 0; i < 20; i++ {
		if _, err := predictSession(srv, "c0"); err != nil {
			t.Fatal(err)
		}
	}
	st = srv.snapshot()
	if st.DriftAudits != audits {
		t.Fatalf("a failing CI still labelled audits: %d -> %d", audits, st.DriftAudits)
	}
	if st.RecalibrationsDeferred != 1 {
		t.Fatalf("20 unlabelled predicts moved RecalibrationsDeferred from 1 to %d", st.RecalibrationsDeferred)
	}
}

// TestAdaptConfigValidation: adaptation requires the server to own the
// relay, sane knobs, and a non-degenerate coverage target.
func TestAdaptConfigValidation(t *testing.T) {
	bw := getBundle(t)
	base := Config{
		Bundle: bw.b, EventNames: []string{"a"}, PerFrameUSD: 0.001,
		DefaultConfidence: 0.9, DefaultCoverage: 0.9,
	}
	cfg := base
	ad := DefaultAdaptConfig()
	cfg.Adapt = &ad
	if _, err := New(cfg); err == nil {
		t.Fatal("Adapt without CI accepted")
	}
	ci := cloud.NewService(bw.st, cloud.RekognitionPricing(), cloud.DefaultLatency())
	cfg.CI = ci
	if _, err := New(cfg); err != nil {
		t.Fatalf("valid adapt config rejected: %v", err)
	}
	bad := DefaultAdaptConfig()
	bad.AuditRate = 1.5
	cfg.Adapt = &bad
	if _, err := New(cfg); err == nil {
		t.Fatal("AuditRate > 1 accepted")
	}
	good := DefaultAdaptConfig()
	cfg.Adapt = &good
	cfg.DefaultCoverage = 1
	if _, err := New(cfg); err == nil {
		t.Fatal("Adapt with DefaultCoverage=1 accepted (monitor has no miss budget)")
	}
}
