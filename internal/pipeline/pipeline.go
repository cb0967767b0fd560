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

	"eventhit/internal/cascade"
	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
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
	// CIRetries is the number of times a failed CI request is retried
	// before the relay is abandoned (transient cloud outages); 0 means no
	// retries. Setting it together with Resilience is a configuration
	// error rejected by New: Resilience.MaxAttempts owns the retry budget.
	CIRetries int
	// Resilience, when non-nil, fully specifies the CI client's retry/
	// backoff/timeout/breaker policy. Nil derives a policy from CIRetries
	// (MaxAttempts = CIRetries+1) with the default backoff and breaker.
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
	// Quantized serves predictions from the int16 fixed-point twin of the
	// strategy's model (LUT sigmoid/tanh, zero-allocation forward). The
	// strategy must implement strategy.Quantizable (the EventHit variants
	// do) or New fails. Per-logit probability deltas against the float
	// path are bounded by core.QuantProbTol; decode thresholds can tip on
	// records within that band, so reports are near- but not bit-identical.
	Quantized bool
	// Incremental caches per-frame covariate extraction in a per-stream
	// ring (features.CachedSource): advancing the collection window costs
	// only the new frames instead of a full re-extraction. Feature rows
	// are counter-based, so the cached windows are bit-identical to
	// recomputation and the run's report is byte-identical to the
	// uncached run. The source must expose per-frame extraction
	// (features.FrameSource) or New fails.
	Incremental bool
	// Cascade, when non-nil, serves predictions from an early-inference
	// model ladder (internal/cascade) instead of the strategy argument,
	// which must then be nil (or the cascade itself). Each horizon is
	// charged the cascade's ACTUAL rung-weighted predict cost in place of
	// the flat PredictMS, so Figure-9's local-compute share reflects where
	// the ladder really stopped. Mutually exclusive with Quantized — the
	// cascade's own Quantized knob owns per-rung quantization.
	Cascade *cascade.Cascade
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

// ActionDetMSDefault is the per-frame cost of an action-detection model
// (~25 fps), what APP-VAE's feature extraction needs (§VI.D footnote).
const ActionDetMSDefault = 40.0

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

// AppVAECosts returns the cost profile of APP-VAE with history window m:
// action-unit detection over the whole window (§VI.D: ~7 s at M=200, ~1
// min at M=1500), plus ~100 ms for the encoder/generator.
func AppVAECosts(window int) Costs {
	return Costs{
		Scan:      ScanProfile{FramesPerHorizon: window, PerFrameMS: ActionDetMSDefault},
		PredictMS: 100,
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

// RelayOutcome records the fate of one relayed (horizon, event) decision.
type RelayOutcome struct {
	// Horizon indexes the returned records/predictions slices.
	Horizon int
	// Event is the event slot k within the task.
	Event int
	// Deferred reports that the relay never reached the CI (graceful
	// degradation). Retried reports a success that needed retries.
	Deferred bool
	Retried  bool
	// Detections is how many true event segments the CI returned.
	Detections int
}

// Marshaller drives one strategy over a stream region.
type Marshaller struct {
	ex    dataset.Source
	strat strategy.Strategy
	ci    cloud.Backend
	res   *resilience.Client
	clock *resilience.Clock
	cfg   dataset.Config
	costs Costs
	// cached is the dedup layer in front of ci (nil when Costs.Cache is
	// unset); the resilient client calls through it.
	cached *cloud.CachedBackend
	// casc is Costs.Cascade; when set it is also strat, and per-horizon
	// predict charges come from PredictCosted instead of Costs.PredictMS.
	casc *cascade.Cascade

	// Stage histograms and run counters (see Costs.Metrics). The stage label
	// matches Figure 10's decomposition: scan, predict, relay.
	scanH, predictH, relayH        *obs.Histogram
	horizonsC, deferredC           *obs.Counter
	ciFramesC, ciSpentC, ciFailedC *obs.Counter
	cacheHitsC, cacheSavedC        *obs.Counter
}

// New assembles a marshaller. ci is any CI backend: the bare simulated
// service, or a fault-injecting wrapper (cloud.Inject) for resilience
// experiments.
func New(ex dataset.Source, s strategy.Strategy, ci cloud.Backend, cfg dataset.Config, costs Costs) (*Marshaller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if costs.Scan.FramesPerHorizon < 0 || costs.Scan.PerFrameMS < 0 || costs.PredictMS < 0 {
		return nil, fmt.Errorf("pipeline: negative costs %+v", costs)
	}
	if costs.CIRetries < 0 {
		return nil, fmt.Errorf("pipeline: negative CIRetries %d", costs.CIRetries)
	}
	if costs.CIRetries > 0 && costs.Resilience != nil {
		// Both knobs configure the same retry budget; silently preferring
		// Resilience (the old behaviour) hid caller bugs where a tuned
		// CIRetries value did nothing.
		return nil, fmt.Errorf("pipeline: CIRetries (%d) and Resilience both set; Resilience.MaxAttempts owns the retry budget", costs.CIRetries)
	}
	var rcfg resilience.Config
	if costs.Resilience != nil {
		rcfg = *costs.Resilience
	} else {
		rcfg = resilience.DefaultConfig(0)
		rcfg.MaxAttempts = costs.CIRetries + 1
	}
	// Fast-path knobs: both swap a component for a faithful faster twin
	// and fail loudly when the component cannot provide one.
	src := ex
	if costs.Incremental {
		cs, err := features.NewCachedSource(src)
		if err != nil {
			return nil, fmt.Errorf("pipeline: incremental covariates: %w", err)
		}
		src = cs
	}
	strat := s
	if costs.Cascade != nil {
		if costs.Quantized {
			return nil, fmt.Errorf("pipeline: Cascade and Quantized both set; Cascade.Quantized owns per-rung quantization")
		}
		if s != nil && s != strategy.Strategy(costs.Cascade) {
			return nil, fmt.Errorf("pipeline: both a strategy (%s) and a cascade configured", s.Name())
		}
		strat = costs.Cascade
	}
	if costs.Quantized {
		q, ok := s.(strategy.Quantizable)
		if !ok {
			return nil, fmt.Errorf("pipeline: strategy %s does not support quantized inference", s.Name())
		}
		qs, err := q.Quantized()
		if err != nil {
			return nil, fmt.Errorf("pipeline: quantized inference: %w", err)
		}
		strat = qs
	}
	// The cache wraps the backend BELOW the resilient client: a hit is an
	// instantly successful zero-latency attempt (no billing, no busy time,
	// the breaker sees a success), a miss retries like any other request.
	var cached *cloud.CachedBackend
	backend := ci
	if costs.Cache != nil {
		cache, err := cicache.New(*costs.Cache)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		cached = cloud.NewCachedBackend(ci, cache, cloud.PerFrameUSDOf(ci))
		backend = cached
	}
	clock := resilience.NewClock()
	reg := costs.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	if costs.Cascade != nil {
		costs.Cascade.Register(reg, nil)
	}
	stageH := func(stage string) *obs.Histogram {
		return reg.Histogram("eventhit_pipeline_stage_ms",
			"simulated per-stage time per horizon (relay: per CI call)",
			obs.MSBuckets(), obs.Labels{"stage": stage})
	}
	return &Marshaller{
		ex: src, strat: strat, ci: ci, cached: cached, casc: costs.Cascade,
		res:   resilience.NewClient(backend, rcfg, clock),
		clock: clock,
		cfg:   cfg, costs: costs,
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
	st0, u0 := m.res.Stats(), m.ci.Usage()
	var sv0 cloud.Savings
	if m.cached != nil {
		sv0 = m.cached.Savings()
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
			var res resilience.Result
			if rq.Keyed {
				res, err = m.res.DetectKeyed(rq.Key, rq.EventType, rq.Win)
			} else {
				res, err = m.res.Detect(rq.EventType, rq.Win)
			}
			// Deferred calls consumed simulated time too (failed attempts,
			// backoff); the relay histogram records both outcomes.
			m.relayH.Observe(res.ElapsedMS)
			out := RelayOutcome{Horizon: rq.Horizon, Event: rq.Event, Retried: res.Retried, Deferred: res.Deferred}
			if err != nil {
				if !m.costs.Degrade || !res.Deferred {
					return Report{}, nil, nil, nil, fmt.Errorf("pipeline: CI call: %w", err)
				}
				rep.CIDeferred++
				outs = append(outs, out)
				continue
			}
			if res.Retried {
				rep.CIRetried++
			}
			out.Detections = len(res.Det.Found)
			rep.Detections += out.Detections
			outs = append(outs, out)
		}
	}
	st := m.res.Stats()
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
	if m.cached != nil {
		sv := m.cached.Savings()
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
