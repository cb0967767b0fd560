// Package pipeline runs the end-to-end marshalling loop of Figure 1: a
// video stream advances one time horizon at a time; for each horizon the
// filter strategy extracts whatever frames it needs (the collection window
// for EventHit and Cox, every horizon frame for VQS, a very large history
// window for APP-VAE), predicts the occurrence intervals, and relays only
// the predicted frame ranges to the simulated CI. The pipeline accounts
// simulated wall-clock per stage using the per-stage throughputs the paper
// reports (§VI.H: lightweight detectors ≈ 100 fps, EventHit inference sub-
// millisecond-to-milliseconds, CI event models ≈ 25 fps), which yields the
// end-to-end FPS of Figure 9 and the stage shares of Figure 10.
//
// CI calls go through a resilient client (internal/resilience): retries
// with seeded-jitter backoff, per-request timeouts and a circuit breaker,
// all on the same simulated clock as the stage accounting — failed
// attempts and backoff waits are charged to the Figure-9 CI time. With
// Costs.Degrade set, relays the CI cannot serve (breaker open or retries
// exhausted) are recorded as deferred instead of failing the run, so the
// marshaller keeps making EventHit-local decisions through an outage.
package pipeline

import (
	"fmt"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/dataset"
	"eventhit/internal/metrics"
	"eventhit/internal/obs"
	"eventhit/internal/resilience"
	"eventhit/internal/strategy"
)

// ScanProfile describes what the filter stage consumes per horizon: how
// many frames it must run its frame-level model on and at what cost.
type ScanProfile struct {
	// FramesPerHorizon is the number of frames scanned per horizon (M for
	// EventHit/Cox, H for VQS, the history window for APP-VAE).
	FramesPerHorizon int
	// PerFrameMS is the scan model's per-frame inference time.
	PerFrameMS float64
}

// Costs bundles the per-stage cost model.
type Costs struct {
	// Scan is the filter's frame-scanning profile.
	Scan ScanProfile
	// PredictMS is the per-horizon cost of the predictor itself (EventHit
	// forward pass, Cox scan, ...).
	PredictMS float64
	// Resilience, when non-nil, specifies the CI client's retry/backoff/
	// timeout/breaker policy. Nil is resilience.DefaultConfig(0) with a
	// single attempt: no retries.
	Resilience *resilience.Config
	// Degrade enables graceful degradation: relays the resilient client
	// cannot serve are recorded as deferred (Report.CIDeferred, the
	// per-relay outcomes) and the run continues on EventHit-local
	// decisions. When false, an unserved relay aborts the run with an
	// error — the pre-resilience behaviour.
	Degrade bool
	// Metrics receives per-stage histograms and run counters; nil uses the
	// process-wide obs.Default() registry. The observations are simulated
	// milliseconds the run already computed — recording them touches no RNG
	// and no clock, so instrumented and bare runs are byte-identical.
	Metrics *obs.Registry
	// Cache, when non-nil, interposes a content-addressed CI result cache
	// (internal/cicache) in front of the backend: relays are keyed by a
	// quantized signature of the covariate window and a hit is served from
	// the stored verdict with zero billing and zero CI busy time. At
	// Epsilon 0 the signature is exact-match only, so a run over a stream
	// with no exact repeats is byte-identical to the uncached run.
	Cache *cicache.Config
}

// FeatureMSDefault is the per-frame cost of the YOLO-class detector used
// for covariate extraction (~100 fps).
const FeatureMSDefault = 10.0

// SpecializedMSDefault is the per-frame cost of a BlazeIt-style
// specialized filter network (very cheap).
const SpecializedMSDefault = 4.0

// EventHitCosts returns the cost profile of the EventHit variants and Cox:
// scan the M-frame collection window with the lightweight detector.
func EventHitCosts(window int) Costs {
	return Costs{
		Scan:      ScanProfile{FramesPerHorizon: window, PerFrameMS: FeatureMSDefault},
		PredictMS: 2,
	}
}

// VQSCosts returns the cost profile of VQS: the specialized model scans
// every horizon frame.
func VQSCosts(horizon int) Costs {
	return Costs{
		Scan:      ScanProfile{FramesPerHorizon: horizon, PerFrameMS: SpecializedMSDefault},
		PredictMS: 1,
	}
}

// Report summarizes one marshalling run.
type Report struct {
	// Horizons is the number of prediction steps taken.
	Horizons int
	// Frames is the number of stream frames covered (Horizons * H).
	Frames int
	// ScanMS, PredictMS and CIMS are the simulated per-stage times. CIMS
	// includes failed attempts and backoff waits, not just the successful
	// requests' processing time.
	ScanMS, PredictMS, CIMS float64
	// CIFrames is the number of frames relayed to the CI. Like every CI and
	// client figure below it is this run's own: a Marshaller run twice
	// reports each run, not the running total of its meters.
	CIFrames int64
	// SpentUSD is the CI bill.
	SpentUSD float64
	// Detections is the number of true event segments the CI returned.
	Detections int
	// CIRetried counts CI requests that failed at least once and were
	// retried successfully.
	CIRetried int
	// CIDeferred counts relays dropped by graceful degradation: the
	// breaker was open or retries were exhausted while Costs.Degrade was
	// set. Deferred relays never reach the CI, so their frames are neither
	// billed nor detected — the recall accounting stays honest.
	CIDeferred int
	// CIFailedAttempts counts individual failed CI attempts; CIBackoffMS
	// is the total simulated backoff wait between attempts. Both are
	// already included in CIMS.
	CIFailedAttempts int64
	CIBackoffMS      float64
	// BreakerTrips counts circuit-breaker closed->open transitions.
	BreakerTrips int64
	// CacheHits/CacheSavedFrames/CacheSavedUSD are the CI result cache's
	// realized savings this run (all zero when Costs.Cache is unset):
	// relays answered from the cache, which billed nothing and added zero
	// CI time — CIMS and SpentUSD already exclude them.
	CacheHits        int64
	CacheSavedFrames int64
	CacheSavedUSD    float64
}

// Relays counts the positive occurrence bits across a run's predictions —
// the number of relay requests the strategy released (served or not). The
// shared definition behind the harness sweeps' and scenario reports' relay
// columns.
func Relays(preds []metrics.Prediction) int {
	n := 0
	for _, p := range preds {
		for _, occ := range p.Occur {
			if occ {
				n++
			}
		}
	}
	return n
}

// DropDeferred returns a copy of preds with the occurrence bit of every
// deferred outcome cleared: those frames never reached the CI, so honest
// recall accounting must not credit them. The one rule behind the harness,
// scenario and fleet realized-REC columns.
func DropDeferred(preds []metrics.Prediction, outs []RelayOutcome) []metrics.Prediction {
	out := make([]metrics.Prediction, len(preds))
	for i, p := range preds {
		out[i] = metrics.Prediction{
			Occur: append([]bool(nil), p.Occur...),
			OI:    append(p.OI[:0:0], p.OI...),
		}
	}
	for _, o := range outs {
		if o.Deferred && o.Horizon < len(out) {
			out[o.Horizon].Occur[o.Event] = false
		}
	}
	return out
}

// TotalMS returns the simulated end-to-end processing time.
func (r Report) TotalMS() float64 { return r.ScanMS + r.PredictMS + r.CIMS }

// FPS returns the simulated end-to-end throughput in frames per second.
func (r Report) FPS() float64 {
	t := r.TotalMS()
	if t == 0 {
		return 0
	}
	return float64(r.Frames) / (t / 1000)
}

// StageShares returns each stage's fraction of the total time
// (scan, predict, CI) — the quantities of Figure 10.
func (r Report) StageShares() (scan, predict, ci float64) {
	t := r.TotalMS()
	if t == 0 {
		return 0, 0, 0
	}
	return r.ScanMS / t, r.PredictMS / t, r.CIMS / t
}

// Marshaller drives one strategy over a stream region.
type Marshaller struct {
	ex    dataset.Source
	strat strategy.Strategy
	ci    cloud.Backend
	// relay is the CI channel over ci (with Costs.Cache's result cache);
	// its client runs on clock, which scan and predict time advance too.
	relay *Relay
	clock *resilience.Clock
	cfg   dataset.Config
	costs Costs

	// Stage histograms and run counters (see Costs.Metrics). The stage label
	// matches Figure 10's decomposition: scan, predict, relay.
	scanH, predictH, relayH        *obs.Histogram
	horizonsC, deferredC           *obs.Counter
	ciFramesC, ciSpentC, ciFailedC *obs.Counter
	cacheHitsC, cacheSavedC        *obs.Counter
}

// New assembles a marshaller over exactly the source and strategy it is
// handed: a caller that wants incremental covariates passes
// features.NewCachedSource(ex). ci is any CI backend: the bare simulated
// service, or a fault-injecting wrapper (cloud.Inject) for resilience
// experiments.
func New(ex dataset.Source, s strategy.Strategy, ci cloud.Backend, cfg dataset.Config, costs Costs) (*Marshaller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if costs.Scan.FramesPerHorizon < 0 || costs.Scan.PerFrameMS < 0 || costs.PredictMS < 0 {
		return nil, fmt.Errorf("pipeline: negative costs %+v", costs)
	}
	// Without a policy the CI client makes one attempt per relay.
	rcfg := resilience.DefaultConfig(0)
	rcfg.MaxAttempts = 1
	if costs.Resilience != nil {
		rcfg = *costs.Resilience
	}
	var cache cicache.Remote
	if costs.Cache != nil {
		c, err := cicache.New(*costs.Cache)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		cache = c
	}
	clock := resilience.NewClock()
	relay, err := NewRelay(ci, cache, cloud.PerFrameUSDOf(ci), rcfg, clock)
	if err != nil {
		return nil, err
	}
	reg := costs.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	stageH := func(stage string) *obs.Histogram {
		return reg.Histogram("eventhit_pipeline_stage_ms",
			"simulated per-stage time per horizon (relay: per CI call)",
			obs.MSBuckets(), obs.Labels{"stage": stage})
	}
	return &Marshaller{
		ex: ex, strat: s, ci: ci, relay: relay, clock: clock,
		cfg: cfg, costs: costs,
		scanH:    stageH("scan"),
		predictH: stageH("predict"),
		relayH:   stageH("relay"),
		horizonsC: reg.Counter("eventhit_pipeline_horizons_total",
			"prediction steps taken", nil),
		deferredC: reg.Counter("eventhit_pipeline_deferred_relays_total",
			"relays dropped by graceful degradation", nil),
		ciFramesC: reg.Counter("eventhit_pipeline_ci_frames_total",
			"frames relayed to and billed by the CI", nil),
		ciSpentC: reg.Counter("eventhit_pipeline_ci_spent_usd_total",
			"CI bill accrued by pipeline runs", nil),
		ciFailedC: reg.Counter("eventhit_pipeline_ci_failed_attempts_total",
			"failed CI attempts during pipeline runs", nil),
		// Registered whether or not the cache is enabled, so the metric
		// families (and any registry digest) are identical across cache
		// on/off runs — they just stay zero without hits.
		cacheHitsC: reg.Counter("eventhit_pipeline_cache_hits_total",
			"relays answered from the CI result cache", nil),
		cacheSavedC: reg.Counter("eventhit_pipeline_cache_saved_usd_total",
			"CI spend avoided by cache hits", nil),
	}, nil
}

// Run marshals the stream from the first admissible anchor at or after
// start until the horizon would pass end, advancing one horizon per step.
// It returns the run report plus the per-horizon records and predictions
// so callers can score accuracy with the metrics package.
func (m *Marshaller) Run(start, end int) (Report, []dataset.Record, []metrics.Prediction, error) {
	rep, recs, preds, _, err := m.RunDetailed(start, end)
	return rep, recs, preds, err
}

// RunDetailed is Run plus the per-relay outcomes, so callers can score
// recall on exactly the horizons whose relays reached the CI (deferred
// relays deliver no frames and must not count as recalled).
func (m *Marshaller) RunDetailed(start, end int) (Report, []dataset.Record, []metrics.Prediction, []RelayOutcome, error) {
	start, end = m.clamp(start, end)
	var rep Report
	var tl Timeline
	var outs []RelayOutcome
	// Baselines: the client and CI meters are cumulative across runs of the
	// same backend; the report and the run counters only take this run's
	// delta.
	cached := m.relay.Cached()
	st0, u0 := m.relay.Client().Stats(), m.ci.Usage()
	var sv0 cloud.Savings
	if cached != nil {
		sv0 = cached.Savings()
	}
	for t := start; t+m.cfg.Horizon <= end; t += m.cfg.Horizon {
		reqs, localMS, err := m.step(t, &tl)
		if err != nil {
			return Report{}, nil, nil, nil, err
		}
		// Scan and predict advance the shared clock too, so breaker
		// cooldowns elapse on the pipeline's timeline, not only during CI
		// activity.
		m.clock.Advance(localMS)
		for _, rq := range reqs {
			out, ms, err := m.relay.Serve(rq)
			// Deferred calls consumed simulated time too (failed attempts,
			// backoff); the relay histogram records both outcomes.
			m.relayH.Observe(ms)
			if err != nil && !m.costs.Degrade {
				return Report{}, nil, nil, nil, fmt.Errorf("pipeline: CI call: %w", err)
			}
			if out.Deferred {
				rep.CIDeferred++
			}
			if out.Retried {
				rep.CIRetried++
			}
			rep.Detections += out.Detections
			outs = append(outs, out)
		}
	}
	st := m.relay.Client().Stats()
	u := m.ci.Usage()
	rep.Horizons = tl.Horizons
	rep.Frames = tl.Horizons * m.cfg.Horizon
	rep.ScanMS, rep.PredictMS = tl.ScanMS, tl.PredMS
	rep.CIFrames = u.Frames - u0.Frames
	rep.CIMS = st.BusyMS - st0.BusyMS
	rep.SpentUSD = u.SpentUSD - u0.SpentUSD
	rep.CIFailedAttempts = st.Failures - st0.Failures
	rep.CIBackoffMS = st.BackoffMS - st0.BackoffMS
	rep.BreakerTrips = st.Trips - st0.Trips
	if cached != nil {
		sv := cached.Savings()
		rep.CacheHits = sv.Hits - sv0.Hits
		rep.CacheSavedFrames = sv.SavedFrames - sv0.SavedFrames
		rep.CacheSavedUSD = sv.SavedUSD - sv0.SavedUSD
		m.cacheHitsC.Add(float64(rep.CacheHits))
		m.cacheSavedC.Add(rep.CacheSavedUSD)
	}
	m.horizonsC.Add(float64(rep.Horizons))
	m.deferredC.Add(float64(rep.CIDeferred))
	m.ciFramesC.Add(float64(rep.CIFrames))
	m.ciSpentC.Add(rep.SpentUSD)
	m.ciFailedC.Add(float64(rep.CIFailedAttempts))
	return rep, tl.Records, tl.Preds, outs, nil
}

// Scored is one marshalling run with its recall. REC credits every relay the
// strategy released; RealizedREC only those that reached the CI (equal
// unless Costs.Degrade deferred some); Relays counts the released ones.
type Scored struct {
	Report
	REC, RealizedREC float64
	Relays           int
}

// RunScored builds the marshaller New would and runs it over [start, end]:
// the one "marshal a region and score it" behind the harness figures and
// the scenario pipeline tasks.
func RunScored(src dataset.Source, s strategy.Strategy, ci cloud.Backend, cfg dataset.Config, costs Costs, start, end int) (Scored, error) {
	m, err := New(src, s, ci, cfg, costs)
	if err != nil {
		return Scored{}, err
	}
	rep, recs, preds, outs, err := m.RunDetailed(start, end)
	if err != nil {
		return Scored{}, err
	}
	out := Scored{Report: rep, Relays: Relays(preds)}
	if out.REC, err = metrics.REC(recs, preds); err != nil {
		return Scored{}, err
	}
	out.RealizedREC, err = metrics.REC(recs, DropDeferred(preds, outs))
	return out, err
}
