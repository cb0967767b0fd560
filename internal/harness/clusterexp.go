package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"eventhit/internal/cluster"
	"eventhit/internal/fleet"
)

// ClusterRow is one worker count's entry in the BENCH_cluster.json sweep.
type ClusterRow struct {
	Workers int `json:"workers"`
	// StreamsPerWorker is the bounded-hash load cap ceil(streams/workers);
	// no worker carries more.
	StreamsPerWorker int `json:"streams_per_worker"`
	// BusyMS is each worker's total phase-A compute; MakespanMS is the
	// slowest worker, the fleet's finish line.
	BusyMS     map[string]float64 `json:"busy_ms"`
	MakespanMS float64            `json:"makespan_ms"`
	// CapacityFPS is total frames over makespan — the "N workers process
	// ~N× the video" claim is made on this — and Speedup is this row's
	// makespan advantage over the 1-worker row.
	CapacityFPS float64 `json:"capacity_fps"`
	Speedup     float64 `json:"speedup"`
	// ReportIdentical records whether this sharded run's {report, metrics}
	// JSON matched the single-process fleet.Run baseline byte for byte.
	ReportIdentical bool `json:"report_identical"`
	// TotalSpentUSD restates the arbitrated spend — the same at every
	// worker count, and never above the cap.
	TotalSpentUSD float64 `json:"total_spent_usd"`
}

// ClusterResult is the machine-readable record emitted as
// BENCH_cluster.json: the fleet benchmark re-run through the cluster tier's
// simulated mode at several worker counts, against a single-process
// baseline. The headline claims are (1) Rows[i].ReportIdentical for every
// row — sharding changes wall-clock, never decisions — and (2) capacity
// scaling near-linearly in workers.
type ClusterResult struct {
	Task       string       `json:"task"`
	Seed       int64        `json:"seed"`
	Streams    int          `json:"streams"`
	Frames     int          `json:"frames"`
	Confidence float64      `json:"confidence"`
	Coverage   float64      `json:"coverage"`
	BudgetUSD  float64      `json:"budget_usd"`
	Rows       []ClusterRow `json:"rows"`
	// Report/Metrics are the single-process baseline every sharded run is
	// compared against (and, when all rows are identical, also every
	// sharded run's outcome).
	Report  fleet.Report       `json:"report"`
	Metrics map[string]float64 `json:"metrics"`
}

// ClusterSweep trains one bundle, then marshals the same n-stream workload
// once with single-process fleet.Run and once per entry of workerCounts
// with cluster.RunSim, byte-comparing each sharded report against the
// baseline. Streams are rebuilt fresh for every run so no state leaks
// between them. workerCounts nil defaults to {1, 2, 4}.
func ClusterSweep(taskName string, opt Options, n, frames int, fcfg fleet.Config, workerCounts []int, seed int64, w io.Writer) (*ClusterResult, error) {
	task, err := TaskByName(taskName)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		n = 8
	}
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4}
	}
	env, err := NewEnv(task, opt, seed)
	if err != nil {
		return nil, err
	}

	type digest struct {
		Report  *fleet.Report      `json:"report"`
		Metrics map[string]float64 `json:"metrics"`
	}
	streams, err := fleetStreams(env, n, frames, seed, ownScene)
	if err != nil {
		return nil, err
	}
	baseRep, err := fleet.Run(streams, fcfg)
	if err != nil {
		return nil, err
	}
	baseJSON, err := json.Marshal(digest{baseRep, baseRep.MetricsSummary()})
	if err != nil {
		return nil, err
	}

	res := &ClusterResult{
		Task: task.Name, Seed: seed, Streams: n, Frames: frames,
		Confidence: fleetConfidence, Coverage: fleetConfidence,
		BudgetUSD: fcfg.GlobalBudgetUSD,
		Report:    *baseRep,
		Metrics:   baseRep.MetricsSummary(),
	}
	var makespan1 float64
	for _, workers := range workerCounts {
		streams, err := fleetStreams(env, n, frames, seed, ownScene)
		if err != nil {
			return nil, err
		}
		sim, err := cluster.RunSim(streams, fcfg, workers)
		if err != nil {
			return nil, err
		}
		simJSON, err := json.Marshal(digest{sim.Report, sim.Report.MetricsSummary()})
		if err != nil {
			return nil, err
		}
		row := ClusterRow{
			Workers:          workers,
			StreamsPerWorker: (n + workers - 1) / workers,
			BusyMS:           sim.BusyMS,
			MakespanMS:       sim.MakespanMS,
			CapacityFPS:      sim.CapacityFPS,
			ReportIdentical:  bytes.Equal(baseJSON, simJSON),
			TotalSpentUSD:    sim.Report.TotalSpentUSD,
		}
		if workers == 1 {
			makespan1 = sim.MakespanMS
		}
		if makespan1 > 0 {
			row.Speedup = makespan1 / sim.MakespanMS
		}
		res.Rows = append(res.Rows, row)
	}

	if w != nil {
		t := NewTable(fmt.Sprintf("Cluster sim — %d x %s streams sharded over workers, budget $%.2f",
			n, task.Name, fcfg.GlobalBudgetUSD),
			"workers", "streams/worker", "makespan ms", "capacity fps", "speedup", "identical", "spent $")
		for _, r := range res.Rows {
			t.Addf(r.Workers, r.StreamsPerWorker,
				fmt.Sprintf("%.0f", r.MakespanMS), fmt.Sprintf("%.0f", r.CapacityFPS),
				fmt.Sprintf("%.2f", r.Speedup), r.ReportIdentical,
				fmt.Sprintf("%.2f", r.TotalSpentUSD))
		}
		t.Render(w)
		fmt.Fprintf(w, "baseline: served %d / deferred %d relays, spent $%.2f of $%.2f\n\n",
			res.Report.Served, res.Report.Deferred, res.Report.TotalSpentUSD, fcfg.GlobalBudgetUSD)
	}
	return res, nil
}
