// Package cascade implements a THIA-style early-inference model ladder
// for EventHit, recast through the paper's conformal machinery. A ladder
// holds one or more lowered rungs — the same architecture with shrunk
// hidden widths and a strided collection window, trained once on the same
// dataset and seed discipline as the full model — below the full bundle.
// Every rung is a calibrated strategy.Bundle and decides through the one
// Bundle.Decide. Serving walks the ladder per horizon: the cheapest rung
// decides first, and its answer stands when the conformal output is already
// DECISIVE — every event's two-sided label set (conformal.SetClassifier) is
// a singleton, and every predicted-positive interval, widened to the
// configured coverage, is still narrower than the relay granularity.
// Anything ambiguous escalates to the next rung; the full rung always
// decides, with exactly the EHCR semantics of the plain strategy. The
// conformal exit rule bounds the recall give-up: among exchangeable
// positives, at most a 1-confidence fraction can be wrongly auto-rejected
// by a rung's singleton {absent} set.
//
// No shipped binary links the ladder. It stays as a reference the
// repository benchmark (bench/) walks and times, where it loses to a plain
// predict: its lowered rungs rarely exit, and a walk that escalates runs
// every rung (DESIGN.md "Early-inference cascade").
package cascade

import (
	"fmt"
	"math"
	"sync"

	"eventhit/internal/conformal"
	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/metrics"
	"eventhit/internal/strategy"
)

// Name is the strategy label the cascade reports in comparisons.
const Name = "EH-CASC"

// RungSpec shapes one lowered rung.
type RungSpec struct {
	// Name labels the rung.
	Name string
	// HiddenScale in (0,1) scales the full model's three hidden widths
	// (floored at 2 units each).
	HiddenScale float64
	// WindowStride subsamples the collection window: the rung sees every
	// stride-th covariate row, anchored so the most recent row is always
	// included (the head concatenates it). 1 keeps the full window.
	WindowStride int
}

// weight is the rung's size relative to the full model, the order Validate
// holds the ladder to: window fraction times the quadratic hidden-width
// saving.
func (s RungSpec) weight(fullWindow int) float64 {
	rw := stridedLen(fullWindow, s.WindowStride)
	return float64(rw) / float64(fullWindow) * s.HiddenScale * s.HiddenScale
}

func stridedLen(window, stride int) int { return (window + stride - 1) / stride }

// Config parametrizes a cascade.
type Config struct {
	// Rungs are the lowered rungs, cheapest first. The full model is the
	// implicit top rung and is never listed here.
	Rungs []RungSpec
	// ExitConfidence is the decisiveness bar for early exits: a rung may
	// answer only when every event's conformal label set at this
	// confidence is a singleton. Higher is stricter — fewer exits, and a
	// tighter (at most 1-ExitConfidence) bound on positives wrongly
	// auto-rejected low.
	ExitConfidence float64
	// MaxWidthFrac is the relay-granularity test on {occur} exits: the
	// coverage-adjusted interval must span at most this fraction of the
	// horizon, or the rung escalates (a near-horizon-wide relay from a
	// coarse rung saves nothing downstream).
	MaxWidthFrac float64
	// Confidence and Coverage are the EHCR operating point of the full
	// rung's final decision and the coverage of every rung's interval
	// adjustment; they match the plain strategy the cascade is compared
	// against. Zero values default to 0.9.
	Confidence float64
	Coverage   float64
}

// DefaultConfig returns the tiny/medium/full ladder at a strict exit bar.
func DefaultConfig() Config {
	return Config{
		Rungs: []RungSpec{
			{Name: "tiny", HiddenScale: 0.25, WindowStride: 4},
			{Name: "medium", HiddenScale: 0.5, WindowStride: 2},
		},
		ExitConfidence: 0.98,
		MaxWidthFrac:   0.8,
		Confidence:     0.9,
		Coverage:       0.9,
	}
}

func (c *Config) normalize() {
	if c.Confidence == 0 {
		c.Confidence = 0.9
	}
	if c.Coverage == 0 {
		c.Coverage = 0.9
	}
}

// Validate checks the configuration against the full model's window.
func (c Config) Validate(fullWindow int) error {
	if len(c.Rungs) == 0 {
		return fmt.Errorf("cascade: no lowered rungs (the full model alone is not a cascade)")
	}
	seen := map[string]bool{"full": true}
	prev := 0.0
	for i, r := range c.Rungs {
		if r.Name == "" || seen[r.Name] {
			return fmt.Errorf("cascade: rung %d: name %q empty or duplicate", i, r.Name)
		}
		seen[r.Name] = true
		if !(r.HiddenScale > 0 && r.HiddenScale < 1) {
			return fmt.Errorf("cascade: rung %s: hidden scale %v outside (0,1)", r.Name, r.HiddenScale)
		}
		if r.WindowStride < 1 || r.WindowStride > fullWindow {
			return fmt.Errorf("cascade: rung %s: window stride %d outside [1,%d]", r.Name, r.WindowStride, fullWindow)
		}
		w := r.weight(fullWindow)
		if w <= prev {
			return fmt.Errorf("cascade: rung %s: weight %.3f not above the previous rung's %.3f (order cheapest first)", r.Name, w, prev)
		}
		if w >= 1 {
			return fmt.Errorf("cascade: rung %s: weight %.3f not below the full model", r.Name, w)
		}
		prev = w
	}
	if !(c.ExitConfidence > 0 && c.ExitConfidence < 1) {
		return fmt.Errorf("cascade: exit confidence %v outside (0,1)", c.ExitConfidence)
	}
	if !(c.MaxWidthFrac > 0 && c.MaxWidthFrac <= 1) {
		return fmt.Errorf("cascade: max width fraction %v outside (0,1]", c.MaxWidthFrac)
	}
	if !(c.Confidence > 0 && c.Confidence < 1) || !(c.Coverage > 0 && c.Coverage < 1) {
		return fmt.Errorf("cascade: confidence/coverage (%v, %v) outside (0,1)", c.Confidence, c.Coverage)
	}
	return nil
}

// rung is one ladder position: a calibrated bundle. A lowered rung decides
// on every stride-th covariate row and carries the negative side of its
// existence calibration; the full rung is the caller's bundle, unstrided,
// with a nil set (it always decides).
type rung struct {
	spec   RungSpec
	bundle *strategy.Bundle
	set    *conformal.SetClassifier
}

// walk is the memory one ladder walk writes besides its prediction: the
// decision scratch every rung shares and a lowered rung's strided row view.
type walk struct {
	sc   strategy.Scratch
	rows [][]float64
}

// strided returns the rung's view of a full-window record: every
// stride-th row, anchored at the most recent one. The rows are no longer
// consecutive stream frames, so the record's frame identity is dropped.
func (w *walk) strided(rec dataset.Record, stride int) dataset.Record {
	if stride <= 1 {
		return rec
	}
	n := stridedLen(len(rec.X), stride)
	if cap(w.rows) < n {
		w.rows = make([][]float64, n)
	}
	w.rows = w.rows[:n]
	strideRows(w.rows, rec.X, stride)
	rec.X, rec.Frame = w.rows, 0
	return rec
}

// strideRows fills dst with every stride-th row of x, anchored so the most
// recent row lands last (the head concatenates it). Rows are shared, never
// copied.
func strideRows(dst, x [][]float64, stride int) {
	for i, j := len(x)-1, len(dst)-1; i >= 0 && j >= 0; i, j = i-stride, j-1 {
		dst[j] = x[i]
	}
}

// Stats is a snapshot of a cascade's serving counters.
type Stats struct {
	// Horizons is the number of predictions served.
	Horizons int64
	// Exits[i] counts horizons answered at ladder position i (the last
	// position is the full rung); the exits always sum to Horizons.
	Exits []int64
}

// ExitRates returns Exits normalized by Horizons (all zeros before the
// first prediction).
func (s Stats) ExitRates() []float64 {
	out := make([]float64, len(s.Exits))
	if s.Horizons == 0 {
		return out
	}
	for i, e := range s.Exits {
		out[i] = float64(e) / float64(s.Horizons)
	}
	return out
}

// Cascade is a trained, calibrated ladder. It implements
// strategy.Strategy ("EH-CASC"). Prediction only reads the rung bundles —
// every walk decides through Bundle.Decide on its own pooled scratch — and
// the serving counters are mutex-guarded, so any number of goroutines may
// predict on one Cascade (and on the full bundle it was built under). The
// exception is Bundle.Decide's: a full bundle serving from a quantized
// Predictor is single-stream state.
type Cascade struct {
	cfg     Config
	ladder  []*rung // cheapest first; last is the full rung
	horizon int
	walks   sync.Pool // *walk

	mu    sync.Mutex
	stats Stats
}

var _ strategy.Strategy = (*Cascade)(nil)

// New trains and calibrates a cascade under a trained full bundle. Each
// lowered rung is built from the bundle's model configuration with scaled
// hidden widths and a strided window, trained on train (rows subsampled
// per rung) with tc — callers pass the same TrainConfig discipline the
// full model was trained with — and calibrated on ccalib/rcalib exactly as
// the full bundle was (strategy.Calibrate), plus the negative side of its
// existence calibration. The full bundle is the top rung as it stands;
// nothing is retrained or copied there.
func New(cfg Config, full *strategy.Bundle, train, ccalib, rcalib []dataset.Record, tc core.TrainConfig) (*Cascade, error) {
	if full == nil || full.Model == nil || full.Classifier == nil || full.Regressor == nil {
		return nil, fmt.Errorf("cascade: full bundle missing model or calibration")
	}
	cfg.normalize()
	mc := full.Model.Config()
	if err := cfg.Validate(mc.Window); err != nil {
		return nil, err
	}
	if len(train) == 0 || len(ccalib) == 0 || len(rcalib) == 0 {
		return nil, fmt.Errorf("cascade: empty train or calibration split")
	}
	c := &Cascade{cfg: cfg, horizon: mc.Horizon}
	for _, spec := range cfg.Rungs {
		r, err := buildRung(spec, full, train, ccalib, rcalib, tc)
		if err != nil {
			return nil, err
		}
		c.ladder = append(c.ladder, r)
	}
	c.ladder = append(c.ladder, &rung{
		spec:   RungSpec{Name: "full", HiddenScale: 1, WindowStride: 1},
		bundle: full,
	})
	c.stats.Exits = make([]int64, len(c.ladder))
	return c, nil
}

// buildRung constructs, trains and calibrates one lowered rung.
func buildRung(spec RungSpec, full *strategy.Bundle, train, ccalib, rcalib []dataset.Record, tc core.TrainConfig) (*rung, error) {
	mc := full.Model.Config()
	rc := mc
	rc.HiddenLSTM = scaleHidden(mc.HiddenLSTM, spec.HiddenScale)
	rc.HiddenTrunk = scaleHidden(mc.HiddenTrunk, spec.HiddenScale)
	rc.HiddenHead = scaleHidden(mc.HiddenHead, spec.HiddenScale)
	rc.Window = stridedLen(mc.Window, spec.WindowStride)
	m, err := core.New(rc)
	if err != nil {
		return nil, fmt.Errorf("cascade: rung %s: %w", spec.Name, err)
	}
	if _, err := m.Train(strideRecords(train, mc.Window, spec.WindowStride), tc); err != nil {
		return nil, fmt.Errorf("cascade: training rung %s: %w", spec.Name, err)
	}
	cc := strideRecords(ccalib, mc.Window, spec.WindowStride)
	b, err := strategy.Calibrate(m, cc, strideRecords(rcalib, mc.Window, spec.WindowStride))
	if err != nil {
		return nil, fmt.Errorf("cascade: calibrating rung %s: %w", spec.Name, err)
	}
	b.Tau1, b.Tau2 = full.Tau1, full.Tau2

	// The absent side ranks against the scores C-CLASSIFY discards: the
	// rung's own b_k on the calibration records where the event is absent.
	var sc core.Scratch
	calibB := make([][]float64, len(cc))
	calibL := make([][]bool, len(cc))
	for i, rec := range cc {
		calibB[i] = make([]float64, mc.NumEvents)
		m.Exist(rec.X, 0, &sc, calibB[i])
		calibL[i] = rec.Label
	}
	set, err := conformal.NewSetClassifier(b.Classifier, calibB, calibL)
	if err != nil {
		return nil, fmt.Errorf("cascade: calibrating rung %s existence sets: %w", spec.Name, err)
	}
	return &rung{spec: spec, bundle: b, set: set}, nil
}

func scaleHidden(h int, scale float64) int {
	s := int(math.Round(float64(h) * scale))
	if s < 2 {
		s = 2
	}
	return s
}

// strideRecords returns copies of recs whose covariate windows are
// subsampled at the given stride.
func strideRecords(recs []dataset.Record, fullWindow, stride int) []dataset.Record {
	if stride <= 1 {
		return recs
	}
	w := stridedLen(fullWindow, stride)
	out := make([]dataset.Record, len(recs))
	for i, r := range recs {
		rows := make([][]float64, w)
		strideRows(rows, r.X, stride)
		r.X = rows
		out[i] = r
	}
	return out
}

// Name implements strategy.Strategy.
func (c *Cascade) Name() string { return Name }

// Predict implements strategy.Strategy: it walks the ladder cheapest rung
// first until a rung's decision is decisive; the full rung always decides.
// The Prediction owns its slices.
func (c *Cascade) Predict(rec dataset.Record) metrics.Prediction {
	w, _ := c.walks.Get().(*walk)
	if w == nil {
		w = new(walk)
	}
	defer c.walks.Put(w)
	var p metrics.Prediction
	top := len(c.ladder) - 1
	for i, r := range c.ladder[:top] {
		if c.exits(r, rec, w, &p) {
			c.record(i)
			return p
		}
	}
	// The full rung always decides, with exactly the plain EHCR semantics.
	c.ladder[top].bundle.Decide(rec, strategy.EHCRRule(c.cfg.Confidence, c.cfg.Coverage), &w.sc, &p)
	c.record(top)
	return p
}

// exits decides rec at lowered rung r — the one EHCR decision, at the exit
// confidence — and reports whether that decision is decisive enough to
// stand: every event's two-sided label set must be a singleton (the absent
// side must disagree with Decide's occur side; both or neither is
// ambiguity), and every kept interval must fit the relay-granularity bound.
func (c *Cascade) exits(r *rung, rec dataset.Record, w *walk, p *metrics.Prediction) bool {
	scores := r.bundle.Decide(w.strided(rec, r.spec.WindowStride),
		strategy.EHCRRule(c.cfg.ExitConfidence, c.cfg.Coverage), &w.sc, p)
	maxLen := int(math.Floor(c.cfg.MaxWidthFrac * float64(c.horizon)))
	for j, b := range scores {
		absent := r.set.PValueNeg(j, b) >= 1-c.cfg.ExitConfidence
		if absent == p.Occur[j] || (p.Occur[j] && p.OI[j].Len() > maxLen) {
			return false
		}
	}
	return true
}

func (c *Cascade) record(exitAt int) {
	c.mu.Lock()
	c.stats.Horizons++
	c.stats.Exits[exitAt]++
	c.mu.Unlock()
}

// Stats returns a consistent snapshot of the serving counters.
func (c *Cascade) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Exits = append([]int64(nil), c.stats.Exits...)
	return s
}
