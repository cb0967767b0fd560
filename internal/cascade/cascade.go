// Package cascade implements a THIA-style early-inference model ladder
// for EventHit, recast through the paper's conformal machinery. A ladder
// holds one or more lowered rungs — the same architecture with shrunk
// hidden widths and a strided collection window, trained once on the same
// dataset and seed discipline as the full model — below the full bundle.
// Serving walks the ladder per horizon: the cheapest rung predicts first,
// and its answer stands when the conformal output is already DECISIVE —
// every event's two-sided label set (conformal.SetClassifier) is a
// singleton, and every predicted-positive interval, widened to the
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
	"eventhit/internal/video"
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
	// Quantized serves every rung — lowered and full — from its int16
	// fixed-point twin (core.Quantize), reusing the PR-6 kernels.
	Quantized bool
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

// predictor is the inference surface a rung serves from (float model or
// its quantized twin).
type predictor interface {
	PredictInto(x [][]float64, out *core.Output)
}

// rung is one runnable ladder position. The full rung has spec
// {Name:"full"}, stride 1 and a nil set classifier (it always decides).
type rung struct {
	spec   RungSpec
	model  *core.Model
	pred   predictor
	set    *conformal.SetClassifier
	reg    *conformal.Regressor
	costMS float64
	window int
	stride int
}

// rungView is the per-cascade mutable state of a rung: scratch buffers
// are never shared across Cascade instances (WithThresholds views share
// the rungs but get fresh views).
type rungView struct {
	*rung
	scratch core.Output
	xbuf    [][]float64
}

// predict runs the rung on a full-window record, subsampling rows for
// strided rungs. The returned Output is the view's scratch.
func (r *rungView) predict(x [][]float64) core.Output {
	rows := x
	if r.stride > 1 {
		if len(r.xbuf) != r.window {
			r.xbuf = make([][]float64, r.window)
		}
		j := r.window - 1
		for i := len(x) - 1; i >= 0 && j >= 0; i -= r.stride {
			r.xbuf[j] = x[i]
			j--
		}
		rows = r.xbuf
	}
	r.pred.PredictInto(rows, &r.scratch)
	return r.scratch
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
// strategy.Strategy ("EH-CASC"). A Cascade is NOT safe for concurrent
// prediction (rungs predict through Model.Predict, whose scratch the model
// owns); its stats
// snapshot is independently synchronized so metric scrapes may race with
// a serving goroutine.
type Cascade struct {
	cfg     Config
	ladder  []*rungView // cheapest first; last is the full rung
	full    *strategy.Bundle
	horizon int
	window  int

	mu    sync.Mutex
	stats Stats
}

var _ strategy.Strategy = (*Cascade)(nil)

// New trains and calibrates a cascade under a trained full bundle. Each
// lowered rung is built from the bundle's model configuration with scaled
// hidden widths and a strided window, trained on train (rows subsampled
// per rung) with tc — callers pass the same TrainConfig discipline the
// full model was trained with — and calibrated on ccalib/rcalib with the
// rung's own two-sided set classifier and interval regressor. The full
// bundle's model and calibrations are reused as the top rung; nothing is
// retrained there.
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
	c := &Cascade{cfg: cfg, full: full, horizon: mc.Horizon, window: mc.Window}
	for _, spec := range cfg.Rungs {
		r, err := buildRung(spec, cfg, mc, train, ccalib, rcalib, tc)
		if err != nil {
			return nil, err
		}
		c.ladder = append(c.ladder, &rungView{rung: r})
	}
	fr := &rung{
		spec:   RungSpec{Name: "full", HiddenScale: 1, WindowStride: 1},
		model:  full.Model,
		pred:   full.Model,
		reg:    full.Regressor,
		costMS: cfg.FullPredictMS,
		window: mc.Window,
		stride: 1,
	}
	if cfg.Quantized {
		q, err := core.Quantize(full.Model)
		if err != nil {
			return nil, fmt.Errorf("cascade: quantizing full rung: %w", err)
		}
		fr.pred = q
	}
	c.ladder = append(c.ladder, &rungView{rung: fr})
	c.stats.Exits = make([]int64, len(c.ladder))
	return c, nil
}

// buildRung constructs, trains and calibrates one lowered rung.
func buildRung(spec RungSpec, cfg Config, mc core.Config, train, ccalib, rcalib []dataset.Record, tc core.TrainConfig) (*rung, error) {
	rc := mc
	rc.HiddenLSTM = scaleHidden(mc.HiddenLSTM, spec.HiddenScale)
	rc.HiddenTrunk = scaleHidden(mc.HiddenTrunk, spec.HiddenScale)
	rc.HiddenHead = scaleHidden(mc.HiddenHead, spec.HiddenScale)
	rc.Window = stridedLen(mc.Window, spec.WindowStride)
	m, err := core.New(rc)
	if err != nil {
		return nil, fmt.Errorf("cascade: rung %s: %w", spec.Name, err)
	}
	strided := strideRecords(train, mc.Window, spec.WindowStride)
	if _, err := m.Train(strided, tc); err != nil {
		return nil, fmt.Errorf("cascade: training rung %s: %w", spec.Name, err)
	}
	r := &rung{
		spec:   spec,
		model:  m,
		pred:   m,
		costMS: spec.weight(mc.Window) * cfg.FullPredictMS,
		window: rc.Window,
		stride: spec.WindowStride,
	}
	if cfg.Quantized {
		q, err := core.Quantize(m)
		if err != nil {
			return nil, fmt.Errorf("cascade: quantizing rung %s: %w", spec.Name, err)
		}
		r.pred = q
	}

	// Two-sided existence calibration on the rung's own scores.
	cc := strideRecords(ccalib, mc.Window, spec.WindowStride)
	calibB := make([][]float64, len(cc))
	calibL := make([][]bool, len(cc))
	for i, rec := range cc {
		out := m.Predict(rec.X)
		b := make([]float64, len(out.B))
		copy(b, out.B)
		calibB[i] = b
		calibL[i] = rec.Label
	}
	set, err := conformal.NewSetClassifier(calibB, calibL)
	if err != nil {
		return nil, fmt.Errorf("cascade: calibrating rung %s existence sets: %w", spec.Name, err)
	}
	r.set = set

	// Interval residual calibration, mirroring strategy.Calibrate.
	k := mc.NumEvents
	tau2 := 0.5
	startRes := make([][]float64, k)
	endRes := make([][]float64, k)
	for _, rec := range strideRecords(rcalib, mc.Window, spec.WindowStride) {
		var out core.Output
		evaluated := false
		for j := 0; j < k; j++ {
			if !rec.Label[j] {
				continue
			}
			if !evaluated {
				out = m.Predict(rec.X)
				evaluated = true
			}
			iv, _ := core.DecodeInterval(out.Theta[j], tau2)
			startRes[j] = append(startRes[j], math.Abs(float64(iv.Start-rec.OI[j].Start)))
			endRes[j] = append(endRes[j], math.Abs(float64(iv.End-rec.OI[j].End)))
		}
	}
	reg, err := conformal.NewRegressor(mc.Horizon, startRes, endRes)
	if err != nil {
		return nil, fmt.Errorf("cascade: calibrating rung %s intervals: %w", spec.Name, err)
	}
	r.reg = reg
	return r, nil
}

func scaleHidden(h int, scale float64) int {
	s := int(math.Round(float64(h) * scale))
	if s < 2 {
		s = 2
	}
	return s
}

// strideRecords returns copies of recs whose covariate windows are
// subsampled at the given stride (row slices shared, never copied).
// Records already at the strided length pass through unchanged.
func strideRecords(recs []dataset.Record, fullWindow, stride int) []dataset.Record {
	if stride <= 1 {
		return recs
	}
	w := stridedLen(fullWindow, stride)
	out := make([]dataset.Record, len(recs))
	for i, r := range recs {
		rows := make([][]float64, w)
		j := w - 1
		for src := len(r.X) - 1; src >= 0 && j >= 0; src -= stride {
			rows[j] = r.X[src]
			j--
		}
		r.X = rows
		out[i] = r
	}
	return out
}

// WithThresholds returns a view of the cascade at a different exit
// operating point — shared rung models and calibrations, fresh scratch
// and fresh stats. Views must not be used concurrently with each other or
// the parent (the underlying models cache forward activations).
func (c *Cascade) WithThresholds(exitConfidence, maxWidthFrac float64) (*Cascade, error) {
	cfg := c.cfg
	cfg.ExitConfidence = exitConfidence
	cfg.MaxWidthFrac = maxWidthFrac
	if err := cfg.Validate(c.window); err != nil {
		return nil, err
	}
	v := &Cascade{cfg: cfg, full: c.full, horizon: c.horizon, window: c.window}
	for _, r := range c.ladder {
		v.ladder = append(v.ladder, &rungView{rung: r.rung})
	}
	v.stats.Exits = make([]int64, len(v.ladder))
	return v, nil
}

// Config returns the cascade's configuration (rungs aliased, not copied).
func (c *Cascade) Config() Config { return c.cfg }

// NumRungs returns the ladder length including the full rung.
func (c *Cascade) NumRungs() int { return len(c.ladder) }

// RungName and RungCostMS describe ladder position i.
func (c *Cascade) RungName(i int) string     { return c.ladder[i].spec.Name }
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
// its flat PredictMS.
func (c *Cascade) PredictCosted(rec dataset.Record) (metrics.Prediction, float64) {
	cost := 0.0
	escalations := int64(0)
	for i := 0; i < len(c.ladder)-1; i++ {
		r := c.ladder[i]
		cost += r.costMS
		out := r.predict(rec.X)
		if p, ok := c.tryExit(r, out); ok {
			c.record(i, cost, escalations)
			return p, cost
		}
		escalations++
	}
	fr := c.ladder[len(c.ladder)-1]
	cost += fr.costMS
	out := fr.predict(rec.X)
	p := c.decideFull(out)
	c.record(len(c.ladder)-1, cost, escalations)
	return p, cost
}

// tryExit applies the decisiveness test to a lowered rung's output: every
// event's label set must be a singleton, and every {occur} singleton's
// coverage-adjusted interval must fit the relay-granularity bound.
func (c *Cascade) tryExit(r *rungView, out core.Output) (metrics.Prediction, bool) {
	k := len(out.B)
	maxLen := int(math.Floor(c.cfg.MaxWidthFrac * float64(c.horizon)))
	p := metrics.Prediction{Occur: make([]bool, k), OI: make([]video.Interval, k)}
	for j := 0; j < k; j++ {
		set := r.set.Set(j, out.B[j], c.cfg.ExitConfidence)
		if !set.Singleton() {
			return metrics.Prediction{}, false
		}
		if !set.Occur {
			continue
		}
		iv, _ := core.DecodeInterval(out.Theta[j], c.full.Tau2)
		iv = r.reg.Adjust(j, iv, c.cfg.Coverage)
		if iv.Len() > maxLen {
			return metrics.Prediction{}, false
		}
		p.Occur[j] = true
		p.OI[j] = iv
	}
	return p, true
}

// decideFull is the plain EHCR decision on the full rung's output.
func (c *Cascade) decideFull(out core.Output) metrics.Prediction {
	k := len(out.B)
	p := metrics.Prediction{Occur: make([]bool, k), OI: make([]video.Interval, k)}
	occ := c.full.Classifier.Predict(out.B, c.cfg.Confidence)
	for j := 0; j < k; j++ {
		if !occ[j] {
			continue
		}
		p.Occur[j] = true
		iv, _ := core.DecodeInterval(out.Theta[j], c.full.Tau2)
		p.OI[j] = c.full.Regressor.Adjust(j, iv, c.cfg.Coverage)
	}
	return p
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

// ResetStats zeroes the serving counters (sweep points reuse one ladder).
func (c *Cascade) ResetStats() {
	c.mu.Lock()
	for i := range c.stats.Exits {
		c.stats.Exits[i] = 0
	}
	c.stats.Horizons, c.stats.Escalations = 0, 0
	c.stats.PredictMS, c.stats.ChargedFullMS = 0, 0
	c.mu.Unlock()
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
