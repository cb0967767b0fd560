package harness

import (
	"fmt"
	"io"

	"eventhit/internal/fleet"
)

// FleetResult is the machine-readable record emitted as BENCH_fleet.json:
// one model trained on a task and deployed across n independently generated
// camera streams, all marshalled against ONE shared, budgeted CI backend by
// the fleet scheduler. Same seed + stream count + policy => byte-identical
// JSON at any fleet parallelism.
type FleetResult struct {
	Task       string  `json:"task"`
	Seed       int64   `json:"seed"`
	Streams    int     `json:"streams"`
	Frames     int     `json:"frames"`
	Confidence float64 `json:"confidence"`
	Coverage   float64 `json:"coverage"`
	// Report is the scheduler's outcome: per-stream service/recall/spend
	// plus the shared channel's batching and queueing behaviour.
	Report fleet.Report `json:"report"`
	// Metrics collapses the run-scoped registry to family -> total (see
	// fleet.Report.MetricsSummary); Go marshals map keys sorted, so the
	// digest is deterministic.
	Metrics map[string]float64 `json:"metrics"`
}

// quickFleetPolicy is the scheduler policy behind BENCH_fleet.json, sized
// for Quick() streams: a cap well below the unconstrained spend, and
// per-stream metering on, so the budget and admission machinery engage.
func quickFleetPolicy() fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.GlobalBudgetUSD = 0.5
	cfg.StreamRatePerSec = 600
	cfg.StreamBurst = 3000
	return cfg
}

// runFleet deploys env on n fresh cameras (built one per cell, rebuilt for
// every run) and marshals them through the fleet scheduler under cfg. All
// cameras decide through the shared env.Bundle (Bundle.Decide only reads
// it; each strategy owns its scratch, so timelines can be computed
// concurrently). Camera i watches scene sceneOf(i): cameras on one scene
// share its generation seed, hence identical covariate timelines and
// identical relays — the repetition a content-addressed cache is for.
func runFleet(env *Env, n, frames int, seed int64, sceneOf func(i int) int, cfg fleet.Config) (*fleet.Report, error) {
	streams, err := cells(n, func(i int) (fleet.Stream, error) {
		return env.camera(fmt.Sprintf("cam-%02d", i), seed+int64(1000*(sceneOf(i)+1)), frames)
	})
	if err != nil {
		return nil, err
	}
	return fleet.Run(streams, cfg)
}

// ownScene gives every camera its own scene: n independent streams.
func ownScene(i int) int { return i }

// Fleet trains one bundle on the task, generates n fresh streams of the
// task's dataset (distinct seeds — the paper's independent trials, here
// playing N cameras running the same deployed model), and marshals the
// first `frames` frames of each through the fleet scheduler under fcfg.
// frames <= 0 marshals whole streams.
func Fleet(task Task, opt Options, n, frames int, fcfg fleet.Config, seed int64, w io.Writer) (*FleetResult, error) {
	env, err := NewEnv(task, opt, seed)
	if err != nil {
		return nil, err
	}
	rep, err := runFleet(env, n, frames, seed, ownScene, fcfg)
	if err != nil {
		return nil, err
	}
	res := &FleetResult{
		Task: task.Name, Seed: seed, Streams: n, Frames: frames,
		Confidence: opLevel, Coverage: opLevel,
		Report:  *rep,
		Metrics: rep.MetricsSummary(),
	}
	t := NewTable(fmt.Sprintf("Fleet — %d x %s streams, EHCR(c=α=%.2f), one shared CI (budget $%.2f)",
		n, task.Name, opLevel, fcfg.GlobalBudgetUSD),
		"stream", "relays", "served", "deferred", "shed", "REC", "realized", "spent $", "avg wait ms")
	for _, s := range rep.Streams {
		t.Addf(s.ID, s.Relays, s.Served, s.Deferred, s.Shed,
			fmt.Sprintf("%.3f", s.REC), fmt.Sprintf("%.3f", s.RealizedREC),
			fmt.Sprintf("%.2f", s.SpentUSD), fmt.Sprintf("%.0f", s.AvgWaitMS))
	}
	t.Render(w)
	fmt.Fprintf(w, "served %d / deferred %d / shed %d relays in %d batches (avg %.2f); spent $%.2f of $%.2f; makespan %.0f s\n\n",
		rep.Served, rep.Deferred, rep.Shed, rep.Batches, rep.AvgBatchSize,
		rep.TotalSpentUSD, fcfg.GlobalBudgetUSD, rep.MakespanMS/1000)
	return res, nil
}
