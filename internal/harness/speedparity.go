package harness

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"

	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/metrics"
	"eventhit/internal/pipeline"
)

// The predict fast paths — the incremental covariate cache and the int16
// quantized model — are admitted on deterministic evidence only: a parity
// block with no wall-clock numbers, byte-identical run to run. What the
// paths cost or save in time is measured by bench/ (core.forward_us vs
// core.forward_quant_us, features.window_us vs features.window_cached_us).

// QuantRECTol is the pinned REC delta bound of the quantized path on a
// trained harness task: per-logit probability deltas are bounded by
// core.QuantProbTol, and only records whose decoded outcome tips inside
// that band can change REC. Measured deltas on the TA tasks are <= 0.01;
// 0.02 holds margin and is enforced by SpeedParityCheck, which fails rather
// than reports when it is exceeded.
const QuantRECTol = 0.02

// SpeedParity is the deterministic correctness block: no wall-clock
// numbers, so regenerating it is byte-identical run to run
// (scripts/check.sh relies on that).
type SpeedParity struct {
	// CovariatesIdentical: cached windows deep-equal recomputed ones at
	// every probed anchor.
	CovariatesIdentical bool `json:"covariates_identical"`
	// ReportsByteIdentical: the full pipeline run over the cached source
	// (float model) serializes byte-for-byte identically to the run over
	// the plain extractor; ReportHash fingerprints both.
	ReportsByteIdentical bool   `json:"reports_byte_identical"`
	ReportHash           string `json:"report_hash"`
	// MaxProbDelta is the worst per-logit probability difference between
	// the float and quantized models over the test split, bounded by
	// ProbBound (= core.QuantProbTol).
	MaxProbDelta float64 `json:"max_prob_delta"`
	ProbBound    float64 `json:"prob_bound"`
	// RECFloat/RECQuant score the EHCR strategy on both model paths over
	// the test split; |RECDelta| is bounded by RECBound (= QuantRECTol).
	RECFloat float64 `json:"rec_float"`
	RECQuant float64 `json:"rec_quant"`
	RECDelta float64 `json:"rec_delta"`
	RECBound float64 `json:"rec_bound"`
}

// SpeedParityCheck trains the task, verifies the three fast-path invariants
// and returns the evidence — what `eventhitbench -exp speedparity` emits for
// the check.sh byte-identity gate. Any violation is an error: a path that
// changes results beyond its bound must not be served.
func SpeedParityCheck(task Task, opt Options, seed int64) (*SpeedParity, error) {
	env, err := NewEnv(task, opt, seed)
	if err != nil {
		return nil, err
	}
	p := &SpeedParity{ProbBound: core.QuantProbTol, RECBound: QuantRECTol}

	// (1) Incremental covariates are bit-identical to recomputation.
	cs, err := features.NewCachedSource(env.Ex)
	if err != nil {
		return nil, err
	}
	p.CovariatesIdentical = true
	start, _ := testRegion(env)
	if min := env.Cfg.Window - 1; start < min {
		start = min
	}
	for _, t := range []int{start, start + 1, start + env.Cfg.Window, start + 2*env.Cfg.Window, start + 10*env.Cfg.Window} {
		if t >= env.Stream.N {
			continue
		}
		got, err := cs.Covariates(t, env.Cfg.Window)
		if err != nil {
			return nil, err
		}
		want, err := env.Ex.Covariates(t, env.Cfg.Window)
		if err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(got, want) {
			p.CovariatesIdentical = false
		}
	}
	if !p.CovariatesIdentical {
		return nil, fmt.Errorf("harness: incremental covariates differ from recomputation")
	}

	// (2) The pipeline run over the cached source serializes
	// byte-identically to the run over the plain extractor.
	runPipeline := func(src dataset.Source) ([]byte, error) {
		m, err := pipeline.New(src, env.ehcr90(), env.ci(), env.Cfg, pipeline.EventHitCosts(env.Cfg.Window))
		if err != nil {
			return nil, err
		}
		s, e := testRegion(env)
		rep, recs, preds, err := m.Run(s, e)
		if err != nil {
			return nil, err
		}
		return json.Marshal(struct {
			Rep   pipeline.Report
			Recs  []dataset.Record
			Preds []metrics.Prediction
		}{rep, recs, preds})
	}
	plain, err := runPipeline(env.Ex)
	if err != nil {
		return nil, err
	}
	incr, err := runPipeline(cs)
	if err != nil {
		return nil, err
	}
	p.ReportsByteIdentical = string(plain) == string(incr)
	h := fnv.New64a()
	h.Write(plain)
	p.ReportHash = fmt.Sprintf("%016x", h.Sum64())
	if !p.ReportsByteIdentical {
		return nil, fmt.Errorf("harness: incremental pipeline report is not byte-identical to the seed path")
	}

	// (3) The quantized model stays inside its pinned probability bound,
	// and the resulting REC delta inside QuantRECTol.
	qm, err := core.Quantize(env.Bundle.Model)
	if err != nil {
		return nil, err
	}
	for _, r := range env.Splits.Test {
		fo := env.Bundle.Model.Predict(r.X)
		qo := qm.Predict(r.X)
		for k := range fo.B {
			if d := math.Abs(fo.B[k] - qo.B[k]); d > p.MaxProbDelta {
				p.MaxProbDelta = d
			}
			for v := range fo.Theta[k] {
				if d := math.Abs(fo.Theta[k][v] - qo.Theta[k][v]); d > p.MaxProbDelta {
					p.MaxProbDelta = d
				}
			}
		}
	}
	if p.MaxProbDelta > p.ProbBound {
		return nil, fmt.Errorf("harness: quantized per-logit delta %.4g exceeds pinned bound %.4g",
			p.MaxProbDelta, p.ProbBound)
	}
	qb, err := env.Bundle.WithQuantized()
	if err != nil {
		return nil, err
	}
	floatPt, err := env.Eval(env.ehcr90(), 0)
	if err != nil {
		return nil, err
	}
	quantPt, err := env.Eval(qb.EHCR(opLevel, opLevel), 0)
	if err != nil {
		return nil, err
	}
	p.RECFloat, p.RECQuant = floatPt.REC, quantPt.REC
	p.RECDelta = p.RECQuant - p.RECFloat
	if math.Abs(p.RECDelta) > p.RECBound {
		return nil, fmt.Errorf("harness: quantized REC delta %.4f exceeds pinned bound %.4g",
			p.RECDelta, p.RECBound)
	}
	return p, nil
}
