package harness

import (
	"fmt"
	"io"

	"eventhit/internal/cloud"
	"eventhit/internal/dataset"
	"eventhit/internal/drift"
	"eventhit/internal/features"
	"eventhit/internal/metrics"
	"eventhit/internal/pipeline"
	"eventhit/internal/resilience"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

// DriftResult summarizes the drift-adaptation experiment.
type DriftResult struct {
	Task           string
	Confidence     float64
	CoverageBefore float64 // REC_c on the pre-shift region
	CoverageAfter  float64 // REC_c on the post-shift region, stale calibration
	// Arms walk the post-shift region under drift.DefaultConfig at its
	// shipped AuditRate, then auditing every skip.
	Arms []DriftArm
}

// DriftArm is one walk of the post-shift region under the adaptation loop:
// its counters (Observations are the labeled positives), the Observations
// when the first episode opened and when the first recalibration was cut
// (-1: never), and REC_c on the post-shift region under the last
// calibration cut (0: none).
type DriftArm struct {
	AuditRate float64
	drift.Stats
	OutcomesToAlarm, OutcomesToRecalibration int64
	CoverageRestored                         float64
}

// DriftExperiment runs the §VIII future-work extension end-to-end on a
// real task: EventHit is trained and conformally calibrated on a clean
// region of the stream; at the switch frame the detector degrades
// (covariate drift). The experiment measures how C-CLASSIFY's realized
// coverage collapses under the stale calibration, then walks the
// post-shift region under the adaptation loop serve ships — labeled only by
// the CI, as a deployment is — and reports when it alarms, when it
// recalibrates and how much coverage the recalibration restores.
func DriftExperiment(task Task, opt Options, confidence float64, seed int64, w io.Writer) (*DriftResult, error) {
	if task.NumEvents() != 1 {
		return nil, fmt.Errorf("harness: drift experiment needs a single-event task, %s has %d", task.Name, task.NumEvents())
	}
	// Detector degrades at the start of the final eighth of the stream
	// (the second half of the test region), leaving the first half of the
	// test region as the clean pre-shift evaluation set. The degradation
	// is severe: heavy measurement noise, frequent misses and false
	// positives — a camera knocked out of position.
	switchFrame := 7 * task.Dataset.StreamLen / 8
	// The degradation must destroy the positive-window signal (missed cues,
	// washed-out ramps via CueGain) rather than add noise everywhere —
	// broadband noise or extra false positives push scores up and break
	// precision, not coverage.
	degraded := features.DetectorConfig{
		Jitter:   opt.Detector.Jitter,
		MissRate: 0.9,
		FPRate:   opt.Detector.FPRate,
		CueGain:  0.25,
	}
	env, err := newEnv(task, opt, seed, &degraded, switchFrame)
	if err != nil {
		return nil, err
	}
	cfg := env.Cfg
	res := &DriftResult{Task: task.Name, Confidence: confidence}

	// Pre-shift coverage: the ordinary test split lies in the third/fourth
	// quarter; restrict to records whose whole window+horizon precedes the
	// switch.
	var preRecs []dataset.Record
	for _, r := range env.Splits.Test {
		if r.Frame+cfg.Horizon < switchFrame {
			preRecs = append(preRecs, r)
		}
	}
	ehc := env.Bundle.EHC(confidence)
	res.CoverageBefore = positiveCoverage(ehc, preRecs)

	var postRecs []dataset.Record
	for t := switchFrame + cfg.Window; t+cfg.Horizon < env.Stream.N; t += max(cfg.Horizon/4, 1) {
		rec, err := dataset.BuildRecord(env.Ex, t, cfg)
		if err != nil {
			return nil, err
		}
		postRecs = append(postRecs, rec)
	}
	res.CoverageAfter = positiveCoverage(ehc, postRecs)

	dc := drift.DefaultConfig()
	at := NewTable(fmt.Sprintf("Post-shift walk under drift.Loop (window %d, delta %.2f, MinFresh %d; CI labels only)",
		dc.MonitorWindow, dc.MonitorDelta, dc.MinFresh), "audit rate", "audits", "labeled positives",
		"episodes", "positives to alarm", "recalibrations", "positives to recalibration", "coverage recalibrated")
	for _, rate := range []float64{dc.AuditRate, 1} {
		acfg := dc
		acfg.AuditRate = rate
		cam, err := newAdaptive(env, acfg, strategy.EHCRRule(confidence, confidence))
		if err != nil {
			return nil, err
		}
		arm := DriftArm{AuditRate: rate, OutcomesToAlarm: -1, OutcomesToRecalibration: -1}
		for _, rec := range postRecs {
			_, recal, err := cam.step(rec, cfg.Horizon)
			if err != nil {
				return nil, err
			}
			arm.Stats = cam.loop.Stats()
			if arm.OutcomesToAlarm < 0 && arm.Episodes > 0 {
				arm.OutcomesToAlarm = arm.Observations
			}
			if recal && arm.OutcomesToRecalibration < 0 {
				arm.OutcomesToRecalibration = arm.Observations
			}
		}
		restored := "-"
		if arm.Recalibrations > 0 {
			arm.CoverageRestored = positiveCoverage(cam.bundle.EHC(confidence), postRecs)
			restored = fmt.Sprintf("%.3f", arm.CoverageRestored)
		}
		res.Arms = append(res.Arms, arm)
		at.Addf(rate, arm.Audits, arm.Observations, arm.Episodes, arm.OutcomesToAlarm,
			arm.Recalibrations, arm.OutcomesToRecalibration, restored)
	}

	t := NewTable(fmt.Sprintf("Drift adaptation on %s (c=%.2f, detector degrades at frame %d)",
		task.Name, confidence, switchFrame), "quantity", "value")
	t.Addf("existence coverage, pre-shift", res.CoverageBefore)
	t.Addf("existence coverage, post-shift (stale calibration)", res.CoverageAfter)
	t.Render(w)
	at.Render(w)
	return res, nil
}

// adaptive is one single-event camera under the adaptation loop a serve
// session runs, labeled the way serve labels: a kept decision by the CI's
// verdict on its relayed range, a skip only when the loop audits it.
type adaptive struct {
	bundle *strategy.Bundle
	loop   *drift.Loop
	ci     *cloud.Service // a fresh CI over the camera's stream
	relay  *pipeline.Relay
	events []int // the CI's stream event type
	rule   strategy.Rule
	// budget, when set, is charged every relay first; exhausting it ends
	// the step with nothing sent.
	budget       *cloud.Budget
	sc           strategy.Scratch
	pred         metrics.Prediction
	reqs         []pipeline.RelayRequest
	known, truth []bool
}

// newAdaptive deploys env's bundle under a loop at cfg.
func newAdaptive(env *Env, cfg drift.Config, rule strategy.Rule) (*adaptive, error) {
	loop, err := drift.NewLoop(cfg, rule.Confidence, 1)
	if err != nil {
		return nil, err
	}
	// A fault-free CI never needs the client's retries.
	ci := env.ci()
	relay, err := pipeline.NewRelay(ci, nil, 0, resilience.DefaultConfig(0), nil)
	if err != nil {
		return nil, err
	}
	return &adaptive{
		bundle: env.Bundle, loop: loop, ci: ci, relay: relay, events: env.Ex.Events(), rule: rule,
		known: make([]bool, 1), truth: make([]bool, 1),
	}, nil
}

// step decides the horizon rec anchors, leaving the decision in a.pred,
// then labels it and feeds the loop. It returns the decided relay's
// detections (0 for a skip) and whether a recalibration was swapped in.
func (a *adaptive) step(rec dataset.Record, horizon int) (detections int, recal bool, err error) {
	scores := a.bundle.Decide(rec, a.rule, &a.sc, &a.pred)
	a.reqs = a.relay.AppendRequests(a.reqs[:0], rec, a.events, &a.pred, 0, 0)
	if len(a.reqs) == 0 && a.loop.Audit() {
		hz := video.Interval{Start: rec.Frame + 1, End: rec.Frame + horizon}
		a.reqs = append(a.reqs, pipeline.RelayRequest{EventType: a.events[0], Win: hz})
	}
	a.known[0], a.truth[0] = false, false
	for _, rq := range a.reqs {
		if a.budget != nil {
			if err := a.budget.Charge(a.ci.CostOf(rq.Win.Len())); err != nil {
				return 0, false, err
			}
		}
		out, _, err := a.relay.Serve(rq)
		if err != nil {
			return 0, false, err
		}
		a.known[0], a.truth[0] = true, out.Detections > 0
		if a.pred.Occur[0] {
			detections = out.Detections
		}
	}
	if cls := a.loop.Observe(scores, a.pred.Occur, a.known, a.truth); cls != nil {
		if a.bundle, err = a.bundle.WithClassifier(cls); err != nil {
			return 0, false, err
		}
		recal = true
	}
	return detections, recal, nil
}

// positiveCoverage is REC_c of one strategy: existence as a ratio, 0 when
// recs hold no positive.
func positiveCoverage(s strategy.Strategy, recs []dataset.Record) float64 {
	kept, pos := existence(s, recs)
	if pos == 0 {
		return 0
	}
	return float64(kept) / float64(pos)
}
