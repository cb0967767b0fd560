// Package fleet marshals N concurrent video streams against ONE shared,
// per-frame-billed CI backend. The paper's pipeline (internal/pipeline)
// owns a private CI channel; at production scale many streams compete for
// the same priced endpoint, and the throughput/cost wins move from "what
// does one stream relay" to "whose relays reach the backend, when, and in
// what batches". The fleet layer answers that with three mechanisms:
//
//   - A priority scheduler ordering pending relays by conformal urgency —
//     the predicted occurrence interval's start minus the stream's current
//     position (earliest-deadline-first). Urgency ages as a request waits,
//     so no stream starves: a parked relay's effective slack decays without
//     bound while fresh arrivals start at their nominal slack.
//   - Batching: compatible pending relays ride one CI batch call, which
//     amortizes the per-call overhead (connection setup, request framing)
//     that dominates small relays.
//   - Budgets and backpressure: a per-stream token bucket meters each
//     stream's billed frames, a global spend cap bounds the fleet's total
//     CI bill, and a bounded pending queue sheds the lowest-urgency relays
//     first when the backend falls behind. Unserved relays reuse the
//     graceful-degradation semantics of pipeline.Costs.Degrade: recorded
//     as deferred/shed, never billed, never counted as recalled.
//
// Determinism: stream timelines are pure functions of the streams (relay
// outcomes never feed back into the predictor — see pipeline.Collect), so
// Run computes them on Parallelism workers with results slotted by stream
// index, then arbitrates on a single goroutine over the shared simulated
// clock. Same seed + same stream set => byte-identical report at any
// Parallelism.
package fleet

import (
	"errors"
	"fmt"
	"runtime"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/dataset"
	"eventhit/internal/mathx"
	"eventhit/internal/metrics"
	"eventhit/internal/pipeline"
	"eventhit/internal/strategy"
)

// Stream is one admitted simulated stream: the existing pipeline loop's
// ingredients plus the region to marshal.
type Stream struct {
	// ID labels the stream in reports.
	ID string
	// Source/Strategy/Cfg/Costs are the pipeline loop's inputs. Costs.CIMS
	// is owned by the fleet scheduler: only the scan/predict profile is
	// consulted.
	Source   dataset.Source
	Strategy strategy.Strategy
	Cfg      dataset.Config
	Costs    pipeline.Costs
	// Start and End bound the marshalled region (absolute frames).
	Start, End int
}

// The shared CI endpoint is priced and timed as cloud.RekognitionPricing
// and cloud.DefaultLatency, and the scheduler's policy is fixed:
const (
	// callOverheadMS is the fixed simulated cost of one CI batch call on
	// top of the per-frame processing time — what batching amortizes.
	callOverheadMS = 120
	// batchMax and batchFramesMax bound one batch call: at most batchMax
	// relays and batchFramesMax total frames ride together.
	batchMax       = 8
	batchFramesMax = 4096
	// framePeriodMS converts waiting time into slack decay for the aging
	// priority: a relay waiting framePeriodMS (one frame at 30 fps) loses
	// one frame of slack.
	framePeriodMS = 1000.0 / 30
)

// Config parametrizes the scheduler's meters and its shared cache.
type Config struct {
	// QueueMax bounds the pending queue; beyond it the lowest-urgency
	// relays are shed (admission control backpressure). 0 means unbounded.
	QueueMax int
	// StreamRatePerSec and StreamBurst configure each stream's token
	// bucket in billed frames: the bucket refills at StreamRatePerSec
	// frames per simulated second up to StreamBurst. Rate <= 0 disables
	// per-stream metering; burst 0 holds one second of rate.
	StreamRatePerSec float64
	StreamBurst      float64
	// GlobalBudgetUSD caps the fleet's total CI spend; relays that would
	// exceed it are deferred. 0 means uncapped.
	GlobalBudgetUSD float64
	// Cache, when non-nil, shares one content-addressed CI result cache
	// (internal/cicache) across every stream in the fleet: relays carrying
	// the same exact covariate signature are answered from the stored
	// verdict — or coalesced into one billed call when they land in the
	// same batch — with zero billing and zero channel time. The cache is
	// consulted only in the serial arbitration phase, so reports stay
	// byte-identical at any Parallelism. Streams without exact repeats hit
	// never, and their report is byte-identical to the uncached run.
	Cache *cicache.Config
	// Parallelism is the number of workers computing stream timelines
	// (phase A); DefaultConfig sets GOMAXPROCS. Scheduling itself is
	// serial; results are identical at any value >= 1.
	Parallelism int
}

// DefaultConfig returns a production-shaped policy: a bounded queue,
// unmetered streams, no global cap, and stream timelines computed on every
// core.
func DefaultConfig() Config {
	return Config{QueueMax: 64, Parallelism: runtime.GOMAXPROCS(0)}
}

// Validate reports whether the policy is well-formed without running it —
// the pre-flight check spec compilers (internal/scenario) use to surface
// policy errors before streams are built.
func (c Config) Validate() error { return c.validate() }

func (c Config) validate() error {
	if c.QueueMax < 0 {
		return fmt.Errorf("fleet: negative QueueMax %d", c.QueueMax)
	}
	if !(c.GlobalBudgetUSD >= 0 && c.StreamRatePerSec >= 0 && c.StreamBurst >= 0) {
		return fmt.Errorf("fleet: negative policy knob in %+v", c)
	}
	if c.Cache != nil {
		if err := c.Cache.Validate(); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	}
	return nil
}

// StreamReport is one stream's slice of the fleet outcome.
type StreamReport struct {
	ID       string `json:"id"`
	Horizons int    `json:"horizons"`
	// Relays is the number of relay requests the stream released; Served,
	// Deferred (budget) and Shed (queue pressure) partition them.
	Relays   int `json:"relays"`
	Served   int `json:"served"`
	Deferred int `json:"deferred"`
	Shed     int `json:"shed"`
	// Detections counts true event segments the CI returned.
	Detections int `json:"detections"`
	// Frames and SpentUSD are the stream's billed share of the backend.
	Frames   int64   `json:"frames"`
	SpentUSD float64 `json:"spent_usd"`
	// REC assumes every relay landed; RealizedREC zeroes out unserved
	// relays — the recall the operator actually got. Both are UndefinedREC
	// when no event occurred in the stream's region.
	REC         float64 `json:"rec"`
	RealizedREC float64 `json:"realized_rec"`
	// LocalMS is the stream's scan+predict time; AvgWaitMS/MaxWaitMS are
	// its relays' queueing delays at the shared backend.
	LocalMS   float64 `json:"local_ms"`
	AvgWaitMS float64 `json:"avg_wait_ms"`
	MaxWaitMS float64 `json:"max_wait_ms"`
}

// UndefinedREC is StreamReport.REC and RealizedREC for a stream whose
// region held no event occurrence, following metrics.PerEventREC's
// convention for an event with no positive record.
const UndefinedREC float64 = -1

// Report is the fleet run outcome.
type Report struct {
	Streams []StreamReport `json:"streams"`
	// Totals over all streams.
	Served   int `json:"served"`
	Deferred int `json:"deferred"`
	Shed     int `json:"shed"`
	// TotalFrames/TotalSpentUSD are the shared backend's bill; with a
	// global cap, TotalSpentUSD <= BudgetUSD always holds.
	TotalFrames   int64   `json:"total_frames"`
	TotalSpentUSD float64 `json:"total_spent_usd"`
	BudgetUSD     float64 `json:"budget_usd"`
	// Batching and queueing behaviour of the shared channel.
	Batches       int     `json:"batches"`
	AvgBatchSize  float64 `json:"avg_batch_size"`
	MaxQueueDepth int     `json:"max_queue_depth"`
	// Cache outcome of the shared CI result cache (Config.Cache). All four
	// are hit-derived: with the cache off, or on over streams with no
	// exact repeats, they are zero and the report is byte-identical
	// to the uncached run. CacheBadHits counts hits whose stored verdict
	// hid a true occurrence the CI would have found; those relays count as
	// served but not as realized recall. Misses and evictions differ
	// between cache on/off by construction, so they live in CacheStats(),
	// not the JSON.
	CacheHits        int64   `json:"cache_hits"`
	CacheSavedFrames int64   `json:"cache_saved_frames"`
	CacheSavedUSD    float64 `json:"cache_saved_usd"`
	CacheBadHits     int64   `json:"cache_bad_hits"`
	// MakespanMS is when the last activity (local or CI) finished.
	MakespanMS float64 `json:"makespan_ms"`

	// cacheStats is the shared cache's full meter snapshot (zero value when
	// Config.Cache was nil).
	cacheStats cicache.Stats
}

// CacheStats returns the shared cache's full meter snapshot (lookups,
// misses, evictions, entries — the counters deliberately kept out of the
// JSON report because they differ between cache on/off even when the
// outcome is identical).
func (r *Report) CacheStats() cicache.Stats { return r.cacheStats }

// Run admits the streams and marshals them against one shared CI backend.
// Phase A computes each stream's timeline (records, predictions, relay
// requests with release times) on Config.Parallelism workers, slotted by
// stream index; phase B arbitrates all requests serially on the shared
// simulated clock. The report is identical at any Parallelism.
func Run(streams []Stream, cfg Config) (*Report, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("fleet: no streams")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Reports key on the stream ID.
	seen := make(map[string]bool, len(streams))
	for i, s := range streams {
		if s.ID == "" {
			return nil, fmt.Errorf("fleet: stream %d has no ID", i)
		}
		if seen[s.ID] {
			return nil, fmt.Errorf("fleet: duplicate stream ID %q", s.ID)
		}
		seen[s.ID] = true
	}
	var cache *cicache.Cache
	if cfg.Cache != nil {
		var err error
		cache, err = cicache.New(*cfg.Cache)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
	}

	return drive(newScheduler(cfg, cache), streams, cfg)
}

// drive is Run on a built scheduler: phase A, phase B and the report.
func drive(sch *scheduler, streams []Stream, cfg Config) (*Report, error) {
	if err := collect(sch, streams, cfg); err != nil {
		return nil, err
	}
	sch.run()
	return score(sch, cfg)
}

// collect is phase A: every stream's oracle backend and timeline, computed
// on cfg.Parallelism workers and added to the scheduler in input order
// (scheduler tie-breaks depend on insertion order).
func collect(sch *scheduler, streams []Stream, cfg Config) error {
	svcs := make([]*cloud.Service, len(streams))
	tls := make([]pipeline.Timeline, len(streams))
	if err := mathx.ForEach(len(streams), cfg.Parallelism, func(i int) error {
		var err error
		if svcs[i], tls[i], err = collectStream(streams[i], cfg); err != nil {
			return fmt.Errorf("fleet: stream %s: %w", streams[i].ID, err)
		}
		return nil
	}); err != nil {
		return err
	}
	for i, s := range streams {
		sch.addStream(s.ID, svcs[i], tls[i])
	}
	return nil
}

func collectStream(s Stream, cfg Config) (*cloud.Service, pipeline.Timeline, error) {
	if cfg.Cache != nil {
		// The fleet cache owns the keying: requests must be signed with the
		// fleet's quantization, not whatever the stream carried. Signing is
		// pure (no RNG, no clock), so the timeline is unchanged apart from
		// the Key fields.
		s.Costs.Cache = cfg.Cache
	}
	svc := cloud.NewService(s.Source.Stream(), cloud.RekognitionPricing(), cloud.DefaultLatency())
	m, err := pipeline.New(s.Source, s.Strategy, svc, s.Cfg, s.Costs)
	if err != nil {
		return nil, pipeline.Timeline{}, err
	}
	tl, err := m.Collect(s.Start, s.End)
	return svc, tl, err
}

// score turns the drained scheduler into the report: per stream, model
// recall vs realized recall on the relays that actually reached the
// backend.
func score(sch *scheduler, cfg Config) (*Report, error) {
	rep := &Report{BudgetUSD: cfg.GlobalBudgetUSD}
	for _, st := range sch.streams {
		u := st.svc.Usage()
		sr := StreamReport{
			ID:         st.id,
			Horizons:   st.tl.Horizons,
			Relays:     len(st.tl.Requests),
			Served:     st.served,
			Deferred:   st.deferred,
			Shed:       st.shed,
			Detections: st.detections,
			// Spend is derived from the billed frame count with a single
			// multiply so the report obeys the cap by the same arithmetic
			// the scheduler enforces it with (u.SpentUSD accumulates
			// per-call and drifts by float error).
			Frames:    u.Frames,
			SpentUSD:  float64(u.Frames) * cloud.RekognitionPricing().PerFrameUSD,
			LocalMS:   st.tl.LocalMS(),
			MaxWaitMS: st.maxWaitMS,
		}
		if st.served > 0 {
			sr.AvgWaitMS = st.waitSumMS / float64(st.served)
		}
		rec, err := metrics.REC(st.tl.Records, st.tl.Preds)
		switch {
		case errors.Is(err, metrics.ErrNoPositives):
			// An idle stream: no event occurred in its region, so its
			// recall is undefined, not a failure of the fleet.
			sr.REC, sr.RealizedREC = UndefinedREC, UndefinedREC
		case err != nil:
			return nil, fmt.Errorf("fleet: scoring %s: %w", st.id, err)
		default:
			realized, err := metrics.REC(st.tl.Records, pipeline.DropDeferred(st.tl.Preds, st.unserved))
			if err != nil {
				return nil, fmt.Errorf("fleet: scoring %s: %w", st.id, err)
			}
			sr.REC, sr.RealizedREC = rec, realized
		}
		rep.Streams = append(rep.Streams, sr)
		rep.Served += sr.Served
		rep.Deferred += sr.Deferred
		rep.Shed += sr.Shed
		rep.TotalFrames += sr.Frames
		if sr.LocalMS > rep.MakespanMS {
			rep.MakespanMS = sr.LocalMS
		}
	}
	rep.TotalSpentUSD = float64(rep.TotalFrames) * cloud.RekognitionPricing().PerFrameUSD
	rep.Batches = sch.batches
	if sch.batches > 0 {
		rep.AvgBatchSize = float64(rep.Served) / float64(sch.batches)
	}
	rep.MaxQueueDepth = sch.maxDepth
	rep.CacheHits = sch.cacheHits
	rep.CacheSavedFrames = sch.cacheSavedFrames
	// Savings are priced with the same single multiply as the spend totals.
	rep.CacheSavedUSD = float64(sch.cacheSavedFrames) * cloud.RekognitionPricing().PerFrameUSD
	rep.CacheBadHits = sch.cacheBadHits
	if sch.cache != nil {
		rep.cacheStats = sch.cache.Stats()
	}
	if sch.ciFreeMS > rep.MakespanMS {
		rep.MakespanMS = sch.ciFreeMS
	}
	return rep, nil
}
