package harness

import (
	"fmt"
	"io"

	"eventhit/internal/dataset"
	"eventhit/internal/drift"
	"eventhit/internal/features"
	"eventhit/internal/metrics"
	"eventhit/internal/strategy"
)

// DriftResult summarizes the drift-adaptation experiment.
type DriftResult struct {
	Task             string
	Confidence       float64
	CoverageBefore   float64 // REC_c on the pre-shift region
	CoverageAfter    float64 // REC_c on the post-shift region, stale calibration
	AlarmRaised      bool
	OutcomesToAlarm  int
	CoverageRestored float64 // REC_c post-shift with recalibrated C-CLASSIFY
}

// DriftExperiment runs the §VIII future-work extension end-to-end on a
// real task: EventHit is trained and conformally calibrated on a clean
// region of the stream; at the switch frame the detector degrades
// (covariate drift). The experiment measures how C-CLASSIFY's realized
// coverage collapses under the stale calibration, how quickly the
// monitor raises an alarm, and how much coverage a recalibration from
// post-shift outcomes restores.
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
	cfg, bundle := env.Cfg, env.Bundle

	res := &DriftResult{Task: task.Name, Confidence: confidence, OutcomesToAlarm: -1}

	// Pre-shift coverage: the ordinary test split lies in the third/fourth
	// quarter; restrict to records whose whole window+horizon precedes the
	// switch.
	var preRecs []dataset.Record
	for _, r := range env.Splits.Test {
		if r.Frame+cfg.Horizon < switchFrame {
			preRecs = append(preRecs, r)
		}
	}
	ehc := bundle.EHC(confidence)
	res.CoverageBefore = positiveCoverage(ehc, preRecs)

	// Post-shift streaming with monitor + recalibration buffer.
	mon, err := drift.NewMonitor(confidence, 60, 0.05)
	if err != nil {
		return nil, err
	}
	recal, err := drift.NewRecalibrator(1200, 1)
	if err != nil {
		return nil, err
	}
	var postRecs []dataset.Record
	outcomes := 0
	stride := cfg.Horizon / 4
	if stride == 0 {
		stride = 1
	}
	// One decision per anchor serves both consumers: the raw scores feed the
	// recalibration buffer, the existence verdict feeds the monitor.
	rule := strategy.Rule{ConformalExistence: true, Confidence: confidence}
	var sc strategy.Scratch
	var kept metrics.Prediction
	for t := switchFrame + cfg.Window; t+cfg.Horizon < env.Stream.N; t += stride {
		rec, err := dataset.BuildRecord(env.Ex, t, cfg)
		if err != nil {
			return nil, err
		}
		postRecs = append(postRecs, rec)
		scores := bundle.Decide(rec, rule, &sc, &kept)
		if err := recal.Add(scores, rec.Label); err != nil {
			return nil, err
		}
		if !rec.Label[0] {
			continue
		}
		outcomes++
		if mon.Observe(kept.Occur[0]) && !res.AlarmRaised {
			res.AlarmRaised = true
			res.OutcomesToAlarm = outcomes
		}
	}
	res.CoverageAfter = positiveCoverage(ehc, postRecs)

	// Recalibrate C-CLASSIFY from the freshest post-shift outcomes and
	// re-score the post-shift region.
	cls, err := recal.RebuildRecent(600)
	if err != nil {
		return nil, err
	}
	restored, err := bundle.WithClassifier(cls)
	if err != nil {
		return nil, err
	}
	res.CoverageRestored = positiveCoverage(restored.EHC(confidence), postRecs)

	t := NewTable(fmt.Sprintf("Drift adaptation on %s (c=%.2f, detector degrades at frame %d)",
		task.Name, confidence, switchFrame), "quantity", "value")
	t.Addf("existence coverage, pre-shift", res.CoverageBefore)
	t.Addf("existence coverage, post-shift (stale calibration)", res.CoverageAfter)
	t.Addf("alarm raised", res.AlarmRaised)
	t.Addf("positive outcomes until alarm", res.OutcomesToAlarm)
	t.Addf("existence coverage, post-shift (recalibrated)", res.CoverageRestored)
	t.Render(w)
	return res, nil
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
