package harness

import (
	"fmt"
	"io"

	"eventhit/internal/cicache"
	"eventhit/internal/fleet"
)

// CachePoint is one (epsilon, TTL) setting of the cache sweep: the paired
// fleet workload marshalled with the shared CI result cache at that
// tolerance, reported against the uncached baseline.
type CachePoint struct {
	Epsilon   float64 `json:"epsilon"`
	TTLFrames int     `json:"ttl_frames"`
	// Hits/SavedFrames/SavedUSD is what the cache answered without the
	// backend; Misses and Evictions are its full meter (report-external in
	// fleet.Report, surfaced here for tuning).
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	BadHits     int64   `json:"bad_hits"`
	Evictions   int64   `json:"evictions"`
	SavedFrames int64   `json:"saved_frames"`
	SavedUSD    float64 `json:"saved_usd"`
	// Frames/SpentUSD are what still reached the billed channel.
	Frames   int64   `json:"frames"`
	SpentUSD float64 `json:"spent_usd"`
	// Service and recall outcome under the cache.
	Served      int     `json:"served"`
	Deferred    int     `json:"deferred"`
	Shed        int     `json:"shed"`
	RealizedREC float64 `json:"realized_rec"`
	// RECDelta is baseline realized recall minus this point's: the recall
	// the tolerance gave away. Exactly 0 at Epsilon 0.
	RECDelta float64 `json:"rec_delta"`
}

// CacheResult is the machine-readable record emitted as BENCH_cache.json.
// Same seed + options => byte-identical JSON at any harness or fleet
// parallelism.
type CacheResult struct {
	Task       string  `json:"task"`
	Seed       int64   `json:"seed"`
	Streams    int     `json:"streams"`
	Scenes     int     `json:"scenes"`
	Frames     int     `json:"frames"`
	Confidence float64 `json:"confidence"`
	Coverage   float64 `json:"coverage"`
	// Baseline is the identical workload with the cache off.
	BaselineFrames      int64        `json:"baseline_frames"`
	BaselineSpentUSD    float64      `json:"baseline_spent_usd"`
	BaselineRealizedREC float64      `json:"baseline_realized_rec"`
	Points              []CachePoint `json:"points"`
}

// CacheEpsilons returns the signature-tolerance sweep. 0 is the
// exact-match control whose recall delta must be exactly zero.
func CacheEpsilons() []float64 { return []float64{0, 0.25, 1.0} }

// CacheTTLs returns the entry-lifetime sweep in simulated frames.
func CacheTTLs() []int { return []int{2_000, 30_000} }

// CacheFleetPolicy is the scheduler policy the cache sweep runs under:
// unbounded queue, unmetered streams, uncapped budget — every relay is
// served, so at Epsilon 0 the cached run's realized recall matches the
// baseline's exactly and the sweep isolates the cache's effect on the bill.
func CacheFleetPolicy(parallelism int) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.QueueMax = 0
	if parallelism > 0 {
		cfg.Parallelism = parallelism
	}
	return cfg
}

// pairedScene puts consecutive camera pairs on the SAME scene: n cameras
// over ceil(n/2) scenes. Paired cameras release identical relays; unpaired
// content exercises the miss path.
func pairedScene(i int) int { return i / 2 }

func meanRealizedREC(rep *fleet.Report) float64 {
	if len(rep.Streams) == 0 {
		return 0
	}
	var sum float64
	for _, s := range rep.Streams {
		sum += s.RealizedREC
	}
	return sum / float64(len(rep.Streams))
}

// CacheSweep trains one bundle on the task, deploys it over the paired
// workload of pairedScene, and marshals it through the fleet scheduler
// once uncached (the baseline) and once per (epsilon, TTL) grid cell with
// the shared CI result cache on. Every cell rebuilds its streams from the
// same seeds, so the only varying input is the cache config; at Epsilon 0
// the delta is pure savings — coalesced twin relays — with zero recall
// cost. frames <= 0 marshals whole streams.
func CacheSweep(task Task, opt Options, n, frames int, fcfg fleet.Config, seed int64, w io.Writer) (*CacheResult, error) {
	env, err := NewEnv(task, opt, seed)
	if err != nil {
		return nil, err
	}
	type cell struct {
		eps float64
		ttl int
	}
	var grid []cell
	for _, e := range CacheEpsilons() {
		for _, ttl := range CacheTTLs() {
			grid = append(grid, cell{e, ttl})
		}
	}
	// Cell 0 is the uncached baseline; cells 1.. are the grid. Each cell
	// rebuilds its streams (extractors are stateful) and runs with a fresh
	// run-scoped registry (Config.Metrics nil).
	reps, err := cells(1+len(grid), func(i int) (*fleet.Report, error) {
		cfg := fcfg
		cfg.Metrics = nil
		if i > 0 {
			cc := cicache.DefaultConfig()
			cc.Epsilon = grid[i-1].eps
			cc.TTLFrames = grid[i-1].ttl
			cfg.Cache = &cc
		}
		return runFleet(env, n, frames, seed, pairedScene, cfg)
	})
	if err != nil {
		return nil, err
	}
	base := reps[0]
	res := &CacheResult{
		Task: task.Name, Seed: seed, Streams: n, Scenes: (n + 1) / 2,
		Frames: frames, Confidence: opLevel, Coverage: opLevel,
		BaselineFrames: base.TotalFrames, BaselineSpentUSD: base.TotalSpentUSD,
		BaselineRealizedREC: meanRealizedREC(base),
	}
	for i, rep := range reps[1:] {
		cs := rep.CacheStats()
		realized := meanRealizedREC(rep)
		res.Points = append(res.Points, CachePoint{
			Epsilon: grid[i].eps, TTLFrames: grid[i].ttl,
			Hits: rep.CacheHits, Misses: cs.Misses, BadHits: rep.CacheBadHits,
			Evictions:   cs.Evictions,
			SavedFrames: rep.CacheSavedFrames, SavedUSD: rep.CacheSavedUSD,
			Frames: rep.TotalFrames, SpentUSD: rep.TotalSpentUSD,
			Served: rep.Served, Deferred: rep.Deferred, Shed: rep.Shed,
			RealizedREC: realized,
			RECDelta:    res.BaselineRealizedREC - realized,
		})
	}
	t := NewTable(fmt.Sprintf("CI result cache — %d x %s cams over %d scenes, EHCR(c=α=%.2f); baseline $%.2f (%d frames), realized REC %.3f",
		n, task.Name, res.Scenes, opLevel, res.BaselineSpentUSD, res.BaselineFrames, res.BaselineRealizedREC),
		"epsilon", "TTL", "hits", "bad", "saved frames", "saved $", "billed $", "REC delta")
	for _, p := range res.Points {
		t.Addf(p.Epsilon, p.TTLFrames, p.Hits, p.BadHits, p.SavedFrames,
			fmt.Sprintf("%.2f", p.SavedUSD), fmt.Sprintf("%.2f", p.SpentUSD),
			fmt.Sprintf("%+.3f", p.RECDelta))
	}
	t.Render(w)
	fmt.Fprintln(w, "epsilon 0 is the exact-match control: savings come from twin-scene coalescing at zero recall cost")
	fmt.Fprintln(w)
	return res, nil
}
