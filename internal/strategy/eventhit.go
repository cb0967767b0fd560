package strategy

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sync"

	"eventhit/internal/conformal"
	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/metrics"
	"eventhit/internal/video"
)

// Bundle packages a trained EventHit model with its two conformal
// calibrations. The four EventHit-based strategies of §VI.B (EHO, EHC,
// EHR, EHCR) are thin views over one bundle, so a single training +
// calibration pass serves every knob setting of every variant.
type Bundle struct {
	Model      *core.Model
	Classifier *conformal.Classifier
	Regressor  *conformal.Regressor
	// Tau1 and Tau2 are the decoding thresholds of Equations (4)-(5); the
	// paper fixes both to 0.5.
	Tau1, Tau2 float64
	// Predictor, when non-nil, replaces Model for inference (training and
	// calibration always use Model). WithQuantized installs the int16
	// fixed-point twin here. Not serialized — Save/Load round-trips rebuild
	// views from the float weights.
	Predictor Predictor
}

// Predictor is the two-phase inference surface Decide runs on, implemented
// by *core.Model and *core.QuantModel: Exist scores every event's existence
// for the covariate window x whose last row is stream frame `frame` of the
// stream sc is kept for (both predictors reuse the input projections of
// frames an earlier window presented, verified against the rows, so frame
// identity never changes a result; frame <= 0 means none); ThetaRows then
// yields rows [lo, lo+len(dst)) of one head's per-frame scores, for the
// heads and rows the decision goes on to read.
type Predictor interface {
	Exist(x [][]float64, frame int, sc *core.Scratch, b []float64)
	core.ThetaRower
}

// predictor returns the active inference engine.
func (b *Bundle) predictor() Predictor {
	if b.Predictor != nil {
		return b.Predictor
	}
	return b.Model
}

// WithQuantized returns a copy of the bundle whose inference runs on the
// int16 fixed-point twin of the model (see core.Quantize); calibration
// state and thresholds are shared. Nothing serves through it: the twin is
// the reference the repository benchmark times against the float path.
func (b *Bundle) WithQuantized() (*Bundle, error) {
	q, err := core.Quantize(b.Model)
	if err != nil {
		return nil, err
	}
	out := *b
	out.Predictor = q
	return &out, nil
}

// Clone returns a copy of the bundle with its own model: the weights are
// deep-cloned — for a caller that goes on to train, or that predicts
// through Model.Predict's model-owned scratch — while the calibration state
// and thresholds, immutable once built, are shared. Deciding needs no
// clone: Decide only reads the model. Any installed Predictor view is
// dropped; rebuild it against the clone (e.g. with WithQuantized) if
// needed.
func (b *Bundle) Clone() *Bundle {
	out := *b
	out.Model = b.Model.Clone()
	out.Predictor = nil
	return &out
}

// WithClassifier returns a copy of the bundle serving the same model and
// interval calibration with a replacement C-CLASSIFY calibration — the
// swap an online recalibration performs after a drift alarm. The new
// classifier must cover the same event count; any installed Predictor view
// (e.g. the quantized twin) carries over unchanged, since the model it
// wraps is untouched.
func (b *Bundle) WithClassifier(cls *conformal.Classifier) (*Bundle, error) {
	if cls == nil {
		return nil, fmt.Errorf("strategy: nil classifier")
	}
	if got, want := cls.NumEvents(), b.Model.Config().NumEvents; got != want {
		return nil, fmt.Errorf("strategy: classifier covers %d events, model has %d", got, want)
	}
	out := *b
	out.Classifier = cls
	return &out, nil
}

// Calibrate builds a bundle from a trained model and the two calibration
// record sets (D_c-calib for C-CLASSIFY, D_r-calib for C-REGRESS).
func Calibrate(m *core.Model, ccalib, rcalib []dataset.Record) (*Bundle, error) {
	b := &Bundle{Model: m, Tau1: 0.5, Tau2: 0.5}
	k := m.Config().NumEvents

	// C-CLASSIFY calibration: existence scores vs labels.
	if len(ccalib) == 0 {
		return nil, fmt.Errorf("strategy: empty C-CLASSIFY calibration set")
	}
	calibB := make([][]float64, len(ccalib))
	calibL := make([][]bool, len(ccalib))
	for i, r := range ccalib {
		out := m.Predict(r.X)
		calibB[i] = out.B
		calibL[i] = r.Label
	}
	cls, err := conformal.NewClassifier(calibB, calibL)
	if err != nil {
		return nil, fmt.Errorf("strategy: calibrating C-CLASSIFY: %w", err)
	}
	b.Classifier = cls

	// C-REGRESS calibration: interval residuals on positive records.
	if len(rcalib) == 0 {
		return nil, fmt.Errorf("strategy: empty C-REGRESS calibration set")
	}
	startRes := make([][]float64, k)
	endRes := make([][]float64, k)
	for _, r := range rcalib {
		var out core.Output
		evaluated := false
		for j := 0; j < k; j++ {
			if !r.Label[j] {
				continue
			}
			if !evaluated {
				out = m.Predict(r.X)
				evaluated = true
			}
			iv, _ := core.DecodeInterval(out.Theta[j], b.Tau2)
			startRes[j] = append(startRes[j], absInt(iv.Start-r.OI[j].Start))
			endRes[j] = append(endRes[j], absInt(iv.End-r.OI[j].End))
		}
	}
	reg, err := conformal.NewRegressor(m.Config().Horizon, startRes, endRes)
	if err != nil {
		return nil, fmt.Errorf("strategy: calibrating C-REGRESS: %w", err)
	}
	b.Regressor = reg
	return b, nil
}

func absInt(v int) float64 {
	if v < 0 {
		v = -v
	}
	return float64(v)
}

// WithTaus returns a copy of the bundle with different decoding
// thresholds τ1 and τ2 — the knob EHO sweeps when compared against the
// conformal variants (the paper fixes both at 0.5; the ablation in this
// repository sweeps them to show what conformal calibration buys over raw
// threshold tuning).
func (b *Bundle) WithTaus(tau1, tau2 float64) *Bundle {
	out := *b
	out.Tau1, out.Tau2 = tau1, tau2
	return &out
}

// Rule is the pair of decoding rules one decision applies — all that tells
// the EventHit variants apart.
type Rule struct {
	// ConformalExistence selects C-CLASSIFY (Eq. 9) at Confidence over the
	// τ1 threshold (Eq. 4).
	ConformalExistence bool
	// ConformalInterval selects C-REGRESS (Eq. 11) at Coverage over the raw
	// decoded interval (Eq. 6).
	ConformalInterval    bool
	Confidence, Coverage float64
}

// EHCRRule is the rule EHCR applies: C-CLASSIFY at confidence c and
// C-REGRESS at coverage alpha.
func EHCRRule(c, alpha float64) Rule {
	return Rule{ConformalExistence: true, Confidence: c, ConformalInterval: true, Coverage: alpha}
}

// Scratch is the memory one Decide writes besides its result: the model
// activations, the raw existence scores and the one Θ vector in flight —
// and, between Decides, the input projections of the stream it is kept for
// (core.Scratch), so give each stream its own. The zero value is ready; one
// Scratch serves one Decide at a time.
type Scratch struct {
	core  core.Scratch
	b     []float64
	theta []float64
}

// Decide is the one marshalling decision every EventHit variant and every
// serving path runs: existence scores, the rule's existence test per event
// and — only for events found to occur — Θ_k, the decoded interval and its
// conformal adjustment. An absent event's Θ_k is never read by any rule, nor
// are a present event's rows between the first and last above τ2
// (core.DecodeEdges), so not computing them changes nothing. The decision
// lands in p, whose slices
// are reused when long enough; the returned raw scores b_k alias sc and
// hold until its next Decide.
//
// Decide reads the bundle and writes only sc and p, so with the float
// model any number of goroutines may decide on one bundle at once. A
// quantized Predictor is single-stream state: serialize its callers.
func (b *Bundle) Decide(rec dataset.Record, r Rule, sc *Scratch, p *metrics.Prediction) []float64 {
	cfg := b.Model.Config()
	k := cfg.NumEvents
	if cap(sc.b) < k || cap(sc.theta) < cfg.Horizon {
		sc.b, sc.theta = make([]float64, k), make([]float64, cfg.Horizon)
	}
	scores, theta := sc.b[:k], sc.theta[:cfg.Horizon]
	if cap(p.Occur) < k || cap(p.OI) < k {
		p.Occur, p.OI = make([]bool, k), make([]video.Interval, k)
	}
	p.Occur, p.OI = p.Occur[:k], p.OI[:k]
	pr := b.predictor()
	pr.Exist(rec.X, rec.Frame, &sc.core, scores)
	for j, bj := range scores {
		if r.ConformalExistence {
			p.Occur[j] = b.Classifier.PValue(j, bj) >= 1-r.Confidence
		} else {
			p.Occur[j] = bj >= b.Tau1
		}
		p.OI[j] = video.Interval{}
		if !p.Occur[j] {
			continue
		}
		iv, _ := core.DecodeEdges(pr, j, &sc.core, theta, b.Tau2)
		if r.ConformalInterval {
			iv = b.Regressor.Adjust(j, iv, r.Coverage)
		}
		p.OI[j] = iv
	}
	return scores
}

// eh is the shared implementation of the EventHit variants: a rule over a
// bundle. Each Predict decides on a Scratch from the pool, so any number of
// goroutines may predict at once; on a quantized Predictor, single-stream
// state, they take turns.
type eh struct {
	b       *Bundle
	rule    Rule
	name    string
	scratch sync.Pool // *Scratch
	quant   sync.Mutex
}

// EHO uses only EventHit's output: τ1 for existence, τ2 decoding for the
// interval.
func (b *Bundle) EHO() Strategy { return &eh{b: b, name: "EHO"} }

// EHC replaces the existence threshold with C-CLASSIFY at confidence c.
func (b *Bundle) EHC(c float64) Strategy {
	return &eh{b: b, rule: Rule{ConformalExistence: true, Confidence: c}, name: "EHC"}
}

// EHR keeps the τ1 existence threshold and widens intervals with C-REGRESS
// at coverage alpha.
func (b *Bundle) EHR(alpha float64) Strategy {
	return &eh{b: b, rule: Rule{ConformalInterval: true, Coverage: alpha}, name: "EHR"}
}

// EHCR combines C-CLASSIFY and C-REGRESS.
func (b *Bundle) EHCR(c, alpha float64) Strategy {
	return &eh{b: b, rule: EHCRRule(c, alpha), name: "EHCR"}
}

// Name implements Strategy.
func (s *eh) Name() string { return s.name }

// Predict implements Strategy. The Prediction owns its slices.
func (s *eh) Predict(rec dataset.Record) metrics.Prediction {
	sc, _ := s.scratch.Get().(*Scratch)
	if sc == nil {
		sc = new(Scratch)
	}
	var p metrics.Prediction
	if s.b.Predictor != nil {
		s.quant.Lock()
		defer s.quant.Unlock()
	}
	s.b.Decide(rec, s.rule, sc, &p)
	s.scratch.Put(sc)
	return p
}

// PredictScored runs the EHCR decision (C-CLASSIFY at confidence,
// C-REGRESS at coverage) and also returns the raw existence scores b_k the
// decision was computed from. One model forward pass serves both; the
// caller owns everything returned. Only the repository benchmark calls it
// (its strategy.predict_scored_us probe and its traced run).
func (b *Bundle) PredictScored(rec dataset.Record, confidence, coverage float64) (metrics.Prediction, []float64) {
	var sc Scratch
	var p metrics.Prediction
	scores := b.Decide(rec, EHCRRule(confidence, coverage), &sc, &p)
	return p, scores
}

// PredictRuns is the multi-instance extension (§II footnote 1): existence
// via C-CLASSIFY at the given confidence, then every maximal θ-run above
// τ2 (runs separated by gaps of at most mergeGap are merged) becomes its
// own relay range. Compared to Equation (6)'s single min..max span this
// avoids relaying the dead time between two instances that share a
// horizon. The per-event slice is nil when the event is predicted absent.
func (b *Bundle) PredictRuns(rec dataset.Record, confidence float64, mergeGap int) [][]video.Interval {
	cfg := b.Model.Config()
	pr := b.predictor()
	var sc core.Scratch
	scores := make([]float64, cfg.NumEvents)
	theta := make([]float64, cfg.Horizon)
	pr.Exist(rec.X, rec.Frame, &sc, scores)
	runs := make([][]video.Interval, len(scores))
	for k, bk := range scores {
		if !(b.Classifier.PValue(k, bk) >= 1-confidence) {
			continue
		}
		pr.ThetaRows(k, &sc, 0, theta)
		rs := core.DecodeIntervals(theta, b.Tau2, mergeGap)
		if len(rs) == 0 {
			iv, _ := core.DecodeInterval(theta, b.Tau2)
			rs = []video.Interval{iv}
		}
		runs[k] = rs
	}
	return runs
}

// Save writes the entire deployable unit — model weights, C-CLASSIFY and
// C-REGRESS calibration state and the decoding thresholds — to w.
func (b *Bundle) Save(w io.Writer) error {
	if err := b.Model.Save(w); err != nil {
		return err
	}
	if err := b.Classifier.Save(w); err != nil {
		return err
	}
	if err := b.Regressor.Save(w); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(struct{ Tau1, Tau2 float64 }{b.Tau1, b.Tau2})
}

// LoadBundle reads a bundle written by Save, refusing one whose model
// weights would take more than maxBytes (see core.Load) and one whose
// thresholds or calibration values are not finite. The reader is
// normalized to an io.ByteReader once so the concatenated gob streams — the
// model's, then one each for C-CLASSIFY, C-REGRESS and the thresholds —
// decode exactly.
func LoadBundle(r io.Reader, maxBytes int64) (*Bundle, error) {
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReader(r)
	}
	m, err := core.Load(r, maxBytes)
	if err != nil {
		return nil, err
	}
	cls, err := conformal.LoadClassifier(r)
	if err != nil {
		return nil, err
	}
	reg, err := conformal.LoadRegressor(r)
	if err != nil {
		return nil, err
	}
	var taus struct{ Tau1, Tau2 float64 }
	if err := gob.NewDecoder(r).Decode(&taus); err != nil {
		// Model and calibrations decoded, so the layout is what differs.
		return nil, fmt.Errorf("strategy: decode thresholds: %w (a bundle saved in an older layout must be retrained)", err)
	}
	// A NaN τ1 would make every existence test false: a server that never
	// relays, and says nothing.
	for _, tau := range []struct {
		name string
		v    float64
	}{{"Tau1", taus.Tau1}, {"Tau2", taus.Tau2}} {
		if math.IsNaN(tau.v) || math.IsInf(tau.v, 0) {
			return nil, fmt.Errorf("strategy: bundle threshold %s is %v", tau.name, tau.v)
		}
	}
	if cls.NumEvents() != m.Config().NumEvents || reg.NumEvents() != m.Config().NumEvents {
		return nil, fmt.Errorf("strategy: bundle event counts disagree (model %d, classifier %d, regressor %d)",
			m.Config().NumEvents, cls.NumEvents(), reg.NumEvents())
	}
	return &Bundle{Model: m, Classifier: cls, Regressor: reg, Tau1: taus.Tau1, Tau2: taus.Tau2}, nil
}
