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
// decides, with exactly the EHCR semantics of the plain strategy.
//
// Because easy horizons dominate sparse event streams (most windows are
// confidently empty), the mean charged predict cost drops well below the
// full model's flat cost while the conformal exit rule bounds the recall
// give-up: among exchangeable positives, at most a 1-confidence fraction
// can be wrongly auto-rejected by a rung's singleton {absent} set.
package cascade

import (
	"fmt"
	"math"
	"sync"

	"eventhit/internal/conformal"
	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/metrics"
	"eventhit/internal/obs"
	"eventhit/internal/strategy"
)

// Name is the strategy label the cascade reports in comparisons.
const Name = "EH-CASC"

// FullPredictMSDefault matches pipeline.EventHitCosts' flat per-horizon
// predict charge, so rung-weighted costs are directly comparable to the
// uncascaded pipeline's accounting.
const FullPredictMSDefault = 2.0

// RungSpec shapes one lowered rung.
type RungSpec struct {
	// Name labels the rung in stats, metrics and sweep artifacts.
	Name string `json:"name"`
	// HiddenScale in (0,1) scales the full model's three hidden widths
	// (floored at 2 units each).
	HiddenScale float64 `json:"hidden_scale"`
	// WindowStride subsamples the collection window: the rung sees every
	// stride-th covariate row, anchored so the most recent row is always
	// included (the head concatenates it). 1 keeps the full window.
	WindowStride int `json:"window_stride"`
}

// weight is the rung's predict cost relative to the full model: window
// fraction times the quadratic hidden-width saving.
func (s RungSpec) weight(fullWindow int) float64 {
	rw := stridedLen(fullWindow, s.WindowStride)
	return float64(rw) / float64(fullWindow) * s.HiddenScale * s.HiddenScale
}

func stridedLen(window, stride int) int { return (window + stride - 1) / stride }

// DefaultLadder is the tiny/medium shape below the implicit full rung.
func DefaultLadder() []RungSpec {
	return []RungSpec{
		{Name: "tiny", HiddenScale: 0.25, WindowStride: 4},
		{Name: "medium", HiddenScale: 0.5, WindowStride: 2},
	}
}

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
	// FullPredictMS is the charged cost of one full-rung predict; lowered
	// rungs are charged their weight times this. Zero defaults to
	// FullPredictMSDefault.
	FullPredictMS float64
}

// DefaultConfig returns the tiny/medium/full ladder at a strict exit bar.
func DefaultConfig() Config {
	return Config{
		Rungs:          DefaultLadder(),
		ExitConfidence: 0.98,
		MaxWidthFrac:   0.8,
		Confidence:     0.9,
		Coverage:       0.9,
		FullPredictMS:  FullPredictMSDefault,
	}
}

func (c *Config) normalize() {
	if c.Confidence == 0 {
		c.Confidence = 0.9
	}
	if c.Coverage == 0 {
		c.Coverage = 0.9
	}
	if c.FullPredictMS == 0 {
		c.FullPredictMS = FullPredictMSDefault
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
			return fmt.Errorf("cascade: rung %s: cost weight %.3f not above the previous rung's %.3f (order cheapest first)", r.Name, w, prev)
		}
		if w >= 1 {
			return fmt.Errorf("cascade: rung %s: cost weight %.3f not below the full model", r.Name, w)
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
	if c.FullPredictMS <= 0 {
		return fmt.Errorf("cascade: full predict cost %v must be positive", c.FullPredictMS)
	}
	return nil
}

// rung is one ladder position: a calibrated bundle and what one evaluation
// of it is charged. A lowered rung decides on every stride-th covariate row
// and carries the negative side of its existence calibration; the full
// rung is the caller's bundle, unstrided, with a nil set (it always
// decides).
type rung struct {
	spec   RungSpec
	bundle *strategy.Bundle
	set    *conformal.SetClassifier
	costMS float64
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
	// Escalations counts rung evaluations that declined to exit.
	Escalations int64
	// PredictMS is the total charged predict cost; ChargedFullMS is what
	// the same horizons would have cost on the full model alone.
	PredictMS     float64
	ChargedFullMS float64
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

// MeanPredictMS is the mean charged predict cost per horizon.
func (s Stats) MeanPredictMS() float64 {
	if s.Horizons == 0 {
		return 0
	}
	return s.PredictMS / float64(s.Horizons)
}

// ComputeFrac is the charged cost as a fraction of the full-model-only
// cost (1 before the first prediction, so an idle cascade reads neutral).
func (s Stats) ComputeFrac() float64 {
	if s.ChargedFullMS == 0 {
		return 1
	}
	return s.PredictMS / s.ChargedFullMS
}

// Cascade is a trained, calibrated ladder. It implements
// strategy.Strategy ("EH-CASC"). Prediction only reads the rung bundles —
// every walk decides through Bundle.Decide on its own pooled scratch — and
// the serving counters are mutex-guarded, so any number of goroutines may
// predict on one Cascade (and on the full bundle it was built under) while
// metric scrapes run. The exception is Bundle.Decide's: a full bundle
// serving from a quantized Predictor is single-stream state.
type Cascade struct {
	cfg     Config
	ladder  []*rung // cheapest first; last is the full rung
	horizon int
	window  int
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
	c := &Cascade{cfg: cfg, horizon: mc.Horizon, window: mc.Window}
	for _, spec := range cfg.Rungs {
		r, err := buildRung(spec, cfg, full, train, ccalib, rcalib, tc)
		if err != nil {
			return nil, err
		}
		c.ladder = append(c.ladder, r)
	}
	c.ladder = append(c.ladder, &rung{
		spec:   RungSpec{Name: "full", HiddenScale: 1, WindowStride: 1},
		bundle: full,
		costMS: cfg.FullPredictMS,
	})
	c.stats.Exits = make([]int64, len(c.ladder))
	return c, nil
}

// buildRung constructs, trains and calibrates one lowered rung.
func buildRung(spec RungSpec, cfg Config, full *strategy.Bundle, train, ccalib, rcalib []dataset.Record, tc core.TrainConfig) (*rung, error) {
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
	return &rung{spec: spec, bundle: b, set: set, costMS: spec.weight(mc.Window) * cfg.FullPredictMS}, nil
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

// WithThresholds returns a view of the cascade at a different exit
// operating point — shared rungs (they are only read), fresh stats.
func (c *Cascade) WithThresholds(exitConfidence, maxWidthFrac float64) (*Cascade, error) {
	cfg := c.cfg
	cfg.ExitConfidence = exitConfidence
	cfg.MaxWidthFrac = maxWidthFrac
	if err := cfg.Validate(c.window); err != nil {
		return nil, err
	}
	v := &Cascade{cfg: cfg, ladder: c.ladder, horizon: c.horizon, window: c.window}
	v.stats.Exits = make([]int64, len(v.ladder))
	return v, nil
}

// Config returns the cascade's configuration (rungs aliased, not copied).
func (c *Cascade) Config() Config { return c.cfg }

// NumRungs returns the ladder length including the full rung.
func (c *Cascade) NumRungs() int { return len(c.ladder) }

// RungCostMS and RungSpecAt describe ladder position i.
func (c *Cascade) RungCostMS(i int) float64  { return c.ladder[i].costMS }
func (c *Cascade) RungSpecAt(i int) RungSpec { return c.ladder[i].spec }
func (c *Cascade) FullPredictMS() float64    { return c.cfg.FullPredictMS }

// Name implements strategy.Strategy.
func (c *Cascade) Name() string { return Name }

// Predict implements strategy.Strategy.
func (c *Cascade) Predict(rec dataset.Record) metrics.Prediction {
	p, _ := c.PredictCosted(rec)
	return p
}

// PredictCosted walks the ladder and returns the prediction together with
// the charged predict cost in simulated milliseconds: the cumulative cost
// of every rung that ran. The pipeline charges exactly this instead of
// its flat PredictMS. The Prediction owns its slices.
func (c *Cascade) PredictCosted(rec dataset.Record) (metrics.Prediction, float64) {
	w, _ := c.walks.Get().(*walk)
	if w == nil {
		w = new(walk)
	}
	defer c.walks.Put(w)
	var p metrics.Prediction
	cost := 0.0
	top := len(c.ladder) - 1
	for i, r := range c.ladder[:top] {
		cost += r.costMS
		if c.exits(r, rec, w, &p) {
			c.record(i, cost, int64(i))
			return p, cost
		}
	}
	// The full rung always decides, with exactly the plain EHCR semantics.
	full := c.ladder[top]
	cost += full.costMS
	full.bundle.Decide(rec, strategy.EHCRRule(c.cfg.Confidence, c.cfg.Coverage), &w.sc, &p)
	c.record(top, cost, int64(top))
	return p, cost
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

func (c *Cascade) record(exitAt int, cost float64, escalations int64) {
	c.mu.Lock()
	c.stats.Horizons++
	c.stats.Exits[exitAt]++
	c.stats.Escalations += escalations
	c.stats.PredictMS += cost
	c.stats.ChargedFullMS += c.cfg.FullPredictMS
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

// Register exposes the cascade's serving counters on reg under the
// eventhit_cascade_* families. Per-rung series carry a "rung" label; the
// scalar families aggregate the whole ladder. Values are read at scrape
// time from the synchronized stats, so recording is determinism-neutral
// and scrapes may race with serving.
func (c *Cascade) Register(reg *obs.Registry, labels obs.Labels) {
	rungLabels := func(name string) obs.Labels {
		l := obs.Labels{"rung": name}
		for k, v := range labels {
			l[k] = v
		}
		return l
	}
	for i := range c.ladder {
		i := i
		l := rungLabels(c.ladder[i].spec.Name)
		reg.CounterFunc("eventhit_cascade_exits_total",
			"horizons answered at this cascade rung", l,
			func() float64 { return float64(c.Stats().Exits[i]) })
		reg.GaugeFunc("eventhit_cascade_exit_rate",
			"fraction of horizons answered at this cascade rung", l,
			func() float64 { return c.Stats().ExitRates()[i] })
		costMS := c.ladder[i].costMS
		reg.GaugeFunc("eventhit_cascade_rung_cost_ms",
			"charged predict cost of one evaluation of this rung", l,
			func() float64 { return costMS })
	}
	reg.CounterFunc("eventhit_cascade_horizons_total",
		"predictions served by the cascade", labels,
		func() float64 { return float64(c.Stats().Horizons) })
	reg.CounterFunc("eventhit_cascade_escalations_total",
		"rung evaluations that declined to exit", labels,
		func() float64 { return float64(c.Stats().Escalations) })
	reg.CounterFunc("eventhit_cascade_predict_ms_total",
		"total charged cascade predict cost (simulated ms)", labels,
		func() float64 { return c.Stats().PredictMS })
	reg.GaugeFunc("eventhit_cascade_compute_share",
		"charged predict cost as a fraction of full-model-only cost", labels,
		func() float64 { return c.Stats().ComputeFrac() })
}
