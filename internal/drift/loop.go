package drift

import (
	"fmt"

	"eventhit/internal/conformal"
)

// The coverage monitor alarms on a 40-outcome sliding window at 5%
// significance; the recalibration buffer keeps the last 1024 labeled
// outcomes; and a recalibration is cut from the 48 or more buffered after
// an alarm episode opens: fewer cut it from noise, more serve the stale
// calibration longer, and none (at alarm time) calibrates on a
// pre/post-shift mixture that restores nothing.
const (
	monitorWindow = 40
	monitorDelta  = 0.05
	bufferCap     = 1024
	minFresh      = 48
)

// Config parametrizes the adaptation loop.
type Config struct {
	// AuditRate is the fraction of skipped decisions whose ground truth is
	// bought anyway by relaying the full horizon. 0 leaves the monitor blind
	// to the events a shift makes the model skip. It is a deterministic
	// accumulator, not a coin flip: n skips get floor(n*AuditRate)±1 audits.
	AuditRate float64
}

// DefaultConfig returns a 10% audit rate.
func DefaultConfig() Config {
	return Config{AuditRate: 0.1}
}

// String describes the loop the configuration runs, constants included.
func (c Config) String() string {
	return fmt.Sprintf("monitor window %d at delta %g, %d post-alarm outcomes before recalibrating, audit rate %g",
		monitorWindow, monitorDelta, minFresh, c.AuditRate)
}

// Stats are a Loop's lifetime counters; Rebase keeps them. Observations
// are the coverage outcomes fed to the monitor (labeled decisions whose
// event truly occurred) and Episodes the distinct alarm episodes among
// them; Audits the skipped decisions an audit labeled; Deferred the rebuild
// attempts that failed, typically ErrInsufficientPositives.
type Stats struct {
	Observations, Episodes, Audits, Recalibrations, Deferred int64
}

// Loop is the adaptation state machine of one camera stream: a monitor and
// a Recalibrator fed its labeled outcomes, the alarm episode they are in
// and the audit accumulator. It is pure and clock-free — the caller relays,
// labels and swaps — and not safe for concurrent use. Per horizon the
// caller asks Audit once per skipped decision, labels the relayed and
// audited decisions from the CI's verdicts and hands them to Observe, which
// cuts a calibration from only the minFresh-or-more outcomes buffered since
// an episode opened: one sustained shift is at most one recalibration.
type Loop struct {
	cfg   Config
	mon   *monitor
	rec   *Recalibrator
	label []bool // Observe's buffered labels
	// minFresh holds the package constant; this package's tests shrink it
	// with the monitor and the buffer.
	minFresh int
	// auditAcc += AuditRate per skipped decision; an audit is due, and 1
	// is taken off, when it reaches 1.
	auditAcc float64
	// episodeOpen is the episode state as the loop last stepped it; fresh
	// counts the labeled outcomes buffered since it opened.
	episodeOpen                bool
	fresh                      int
	audits, recalibs, deferred int64
}

// NewLoop validates cfg and returns a loop watching coverage against the
// nominal level target over k events.
func NewLoop(cfg Config, target float64, k int) (*Loop, error) {
	mon, err := newMonitor(target, monitorWindow, monitorDelta)
	if err != nil {
		return nil, err
	}
	rec, err := NewRecalibrator(bufferCap, k)
	if err != nil {
		return nil, err
	}
	if !(cfg.AuditRate >= 0 && cfg.AuditRate <= 1) {
		return nil, fmt.Errorf("drift: AuditRate %v must be in [0,1]", cfg.AuditRate)
	}
	return &Loop{cfg: cfg, mon: mon, rec: rec, label: make([]bool, k), minFresh: minFresh}, nil
}

// Audit is called once per skipped decision and reports whether its ground
// truth is due: the caller relays the full horizon to label it.
func (l *Loop) Audit() bool {
	l.auditAcc += l.cfg.AuditRate
	if l.auditAcc < 1 {
		return false
	}
	l.auditAcc--
	return true
}

// Observe feeds one horizon: per event, kept[k] is the decision, known[k]
// whether its ground truth came back (a known skip was audited) and
// truth[k] what it was; scores are the raw existence scores. Known
// occurrences feed the monitor; the scores are buffered with unknown labels
// as negatives (C-CLASSIFY calibrates on positives only, so no evidence is
// not corrupt evidence) and the episode steps — unless no label is known,
// which changes nothing. It returns the classifier to swap in when a
// recalibration is cut; a failed rebuild counts Deferred and is retried by
// the next labeled outcome.
func (l *Loop) Observe(scores []float64, kept, known, truth []bool) *conformal.Classifier {
	labeled := false
	for k, kn := range known {
		if !kn {
			continue
		}
		labeled = true
		if !kept[k] {
			l.audits++
		}
		if truth[k] {
			l.mon.Observe(kept[k])
		}
	}
	if !labeled {
		return nil
	}
	for k := range l.label {
		l.label[k] = known[k] && truth[k]
	}
	if l.rec.Add(scores, l.label) != nil {
		return nil
	}
	if l.episodeOpen {
		l.fresh++
	}
	if open := l.mon.alarming; open != l.episodeOpen {
		// An episode opened, or the window recovered on its own (a transient
		// violation) and the episode closes without recalibrating: either
		// way the fresh count restarts.
		l.episodeOpen, l.fresh = open, 0
	}
	if !l.episodeOpen || l.fresh < l.minFresh {
		return nil
	}
	cls, err := l.rec.RebuildRecent(l.fresh)
	if err != nil {
		l.deferred++
		return nil
	}
	l.mon.Reset()
	l.episodeOpen, l.fresh = false, 0
	l.recalibs++
	return cls
}

// Rebase re-points the loop at a swapped-in model or calibration: the
// monitor's window, the buffer (scored by the old model) and any open
// episode are dropped; the lifetime counters are kept.
func (l *Loop) Rebase() {
	l.mon.Reset()
	l.rec.Reset()
	l.episodeOpen, l.fresh = false, 0
}

// Stats returns the lifetime counters.
func (l *Loop) Stats() Stats {
	obs, eps := l.mon.Stats()
	return Stats{
		Observations: int64(obs), Episodes: int64(eps), Audits: l.audits,
		Recalibrations: l.recalibs, Deferred: l.deferred,
	}
}
