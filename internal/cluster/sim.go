// Simulated-mode cluster run: shard fleet timeline computation (phase A,
// the parallelizable 99%) across worker HTTP servers, ship the timelines
// back to the front as JSON, and arbitrate them centrally with
// fleet.RunTimelines (phase B, the serial 1%). Because arbitration and
// scoring are pure functions of (timelines, config) and Go's JSON encoder
// round-trips float64 exactly, the sharded report is BYTE-identical to the
// single-process fleet.Run report at any worker count — the determinism
// bar the whole tier is held to, and BENCH_cluster.json's report_identical
// rows pin.
//
// The workers here are in-process HTTP servers on loopback: the timeline
// WIRE format crosses a real serialization boundary (the part that can
// rot), while stream inputs are shared in memory (generated streams are
// hundreds of MB; a production deployment would ship generator specs, not
// frames).
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"

	"eventhit/internal/cloud"
	"eventhit/internal/dataset"
	"eventhit/internal/fleet"
	"eventhit/internal/metrics"
	"eventhit/internal/pipeline"
	"eventhit/internal/video"
)

// WireRecord is a dataset.Record reduced to what fleet scoring consumes:
// the per-event occurrence labels and true occurrence intervals. The
// covariate matrix (the bulk of a Record) never crosses the wire.
type WireRecord struct {
	Label []bool           `json:"label"`
	OI    []video.Interval `json:"oi"`
}

// WireTimeline is one stream's pipeline.Timeline in transport form.
type WireTimeline struct {
	ID       string                  `json:"id"`
	Requests []pipeline.RelayRequest `json:"requests"`
	Records  []WireRecord            `json:"records"`
	Preds    []metrics.Prediction    `json:"preds"`
	Horizons int                     `json:"horizons"`
	Frames   int                     `json:"frames"`
	ScanMS   float64                 `json:"scan_ms"`
	PredMS   float64                 `json:"pred_ms"`
}

func toWire(id string, tl pipeline.Timeline) WireTimeline {
	w := WireTimeline{
		ID:       id,
		Requests: tl.Requests,
		Preds:    tl.Preds,
		Horizons: tl.Horizons,
		Frames:   tl.Frames,
		ScanMS:   tl.ScanMS,
		PredMS:   tl.PredMS,
	}
	w.Records = make([]WireRecord, len(tl.Records))
	for i, r := range tl.Records {
		w.Records[i] = WireRecord{Label: r.Label, OI: r.OI}
	}
	return w
}

func fromWire(w WireTimeline) pipeline.Timeline {
	tl := pipeline.Timeline{
		Requests: w.Requests,
		Preds:    w.Preds,
		Horizons: w.Horizons,
		Frames:   w.Frames,
		ScanMS:   w.ScanMS,
		PredMS:   w.PredMS,
	}
	tl.Records = make([]dataset.Record, len(w.Records))
	for i, r := range w.Records {
		tl.Records[i] = dataset.Record{Label: r.Label, OI: r.OI}
	}
	return tl
}

// SimResult is one sharded run's outcome: the centrally arbitrated report
// plus the capacity accounting the sharding bought.
type SimResult struct {
	Workers int `json:"workers"`
	// Assignment maps stream ID -> worker ID (bounded consistent hashing:
	// every worker carries ceil(n/W) or floor(n/W) streams).
	Assignment map[string]string `json:"assignment"`
	// BusyMS is each worker's total phase-A simulated compute (the sum of
	// its streams' scan+predict time); MakespanMS is the slowest worker —
	// with timelines computed concurrently, the fleet finishes when its
	// busiest worker does.
	BusyMS     map[string]float64 `json:"busy_ms"`
	MakespanMS float64            `json:"makespan_ms"`
	// TotalFrames is the frames covered across all streams; CapacityFPS is
	// TotalFrames / MakespanMS in frames per second of simulated wall time
	// — the throughput claim "N workers process N× the video" is made on
	// this number.
	TotalFrames int64   `json:"total_frames"`
	CapacityFPS float64 `json:"capacity_fps"`
	// Report is the fleet report from central arbitration, byte-identical
	// to single-process fleet.Run over the same streams and config.
	Report *fleet.Report `json:"report"`
}

type timelineBatch struct {
	Timelines []WireTimeline `json:"timelines"`
}

// simWorker is one in-process timeline server: it owns its assigned
// streams and computes their timelines on demand.
type simWorker struct {
	streams []fleet.Stream
	cfg     fleet.Config
}

// handleTimelines is POST /v1/cluster/timelines: compute every assigned
// stream's timeline with fleet.Run's own phase A and return the batch.
func (sw *simWorker) handleTimelines(w http.ResponseWriter, _ *http.Request) {
	batch := timelineBatch{Timelines: make([]WireTimeline, 0, len(sw.streams))}
	for _, s := range sw.streams {
		cell, err := fleet.Collect(s, sw.cfg)
		if err != nil {
			clusterError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		batch.Timelines = append(batch.Timelines, toWire(cell.ID, cell.TL))
	}
	writeJSON(w, batch)
}

// AssignStreams shards stream IDs onto workers w000..w(N-1) with bounded
// consistent hashing: placement follows the ring, but no worker takes more
// than ceil(len(ids)/workers) streams. Returns streamID -> workerID.
func AssignStreams(ids []string, workers int) (map[string]string, error) {
	if workers < 1 {
		return nil, fmt.Errorf("cluster: workers %d < 1", workers)
	}
	ring := NewRing(0)
	for w := 0; w < workers; w++ {
		ring.Add(simWorkerID(w))
	}
	maxLoad := (len(ids) + workers - 1) / workers
	load := make(map[string]int, workers)
	out := make(map[string]string, len(ids))
	for _, id := range ids {
		node := ring.LookupBounded(id, load, maxLoad)
		if node == "" {
			return nil, fmt.Errorf("cluster: no capacity for stream %q", id)
		}
		load[node]++
		out[id] = node
	}
	return out, nil
}

func simWorkerID(i int) string { return fmt.Sprintf("w%03d", i) }

// RunSim shards streams across `workers` in-process timeline servers,
// gathers the computed timelines over HTTP, and arbitrates them centrally.
// cfg is the same fleet.Config a fleet.Run baseline would take; its
// Parallelism field is ignored (sharding replaces it). cfg.Metrics must be
// fresh per run, exactly as for fleet.Run.
func RunSim(streams []fleet.Stream, cfg fleet.Config, workers int) (*SimResult, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("cluster: no streams")
	}
	if workers < 1 {
		return nil, fmt.Errorf("cluster: workers %d < 1", workers)
	}
	ids := make([]string, len(streams))
	for i, s := range streams {
		ids[i] = s.ID
	}
	if err := fleet.CheckIDs(len(ids), func(i int) string { return ids[i] }); err != nil {
		return nil, err
	}
	assign, err := AssignStreams(ids, workers)
	if err != nil {
		return nil, err
	}

	// Spawn one timeline server per worker on loopback.
	type running struct {
		id  string
		url string
		hs  *http.Server
	}
	servers := make([]running, 0, workers)
	defer func() {
		for _, r := range servers {
			r.hs.Close()
		}
	}()
	for w := 0; w < workers; w++ {
		wid := simWorkerID(w)
		var mine []fleet.Stream
		for _, s := range streams {
			if assign[s.ID] == wid {
				mine = append(mine, s)
			}
		}
		sw := &simWorker{streams: mine, cfg: cfg}
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/cluster/timelines", sw.handleTimelines)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("cluster: sim worker %s: %w", wid, err)
		}
		hs := &http.Server{Handler: mux}
		go hs.Serve(ln)
		servers = append(servers, running{id: wid, url: "http://" + ln.Addr().String(), hs: hs})
	}

	// Gather timelines from every worker concurrently.
	wires := make(map[string]WireTimeline, len(streams))
	busy := make(map[string]float64, workers)
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, len(servers))
	hc := &http.Client{}
	for i, r := range servers {
		wg.Add(1)
		go func(i int, r running) {
			defer wg.Done()
			resp, err := hc.Post(r.url+"/v1/cluster/timelines", "application/json", bytes.NewReader([]byte("{}")))
			if err != nil {
				errs[i] = fmt.Errorf("cluster: worker %s: %w", r.id, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("cluster: worker %s: HTTP %d", r.id, resp.StatusCode)
				return
			}
			var batch timelineBatch
			if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
				errs[i] = fmt.Errorf("cluster: worker %s: %w", r.id, err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			for _, wt := range batch.Timelines {
				wires[wt.ID] = wt
				busy[r.id] += wt.ScanMS + wt.PredMS
			}
		}(i, r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Central arbitration over the wire timelines, in ORIGINAL stream
	// order — scheduler tie-breaks depend on insertion order, and fleet.Run
	// inserts in input order.
	cells := make([]fleet.TimelineStream, len(streams))
	res := &SimResult{Workers: workers, Assignment: assign, BusyMS: busy}
	for i, s := range streams {
		wt, ok := wires[s.ID]
		if !ok {
			return nil, fmt.Errorf("cluster: stream %q missing from worker responses", s.ID)
		}
		// The oracle service is rebuilt front-side over the same generated
		// stream: cloud.Service is deterministic in (stream, pricing,
		// latency), so billing and ground-truth peeks match what a local
		// phase A would have produced.
		cells[i] = fleet.TimelineStream{
			ID:  s.ID,
			Svc: cloud.NewService(s.Source.Stream(), cfg.Pricing, cfg.Latency),
			TL:  fromWire(wt),
		}
		res.TotalFrames += int64(wt.Frames)
	}
	rep, err := fleet.RunTimelines(cells, cfg)
	if err != nil {
		return nil, err
	}
	res.Report = rep
	for _, b := range busy {
		if b > res.MakespanMS {
			res.MakespanMS = b
		}
	}
	if res.MakespanMS > 0 {
		res.CapacityFPS = float64(res.TotalFrames) / res.MakespanMS * 1000
	}
	return res, nil
}
