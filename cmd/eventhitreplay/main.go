// Command eventhitreplay audits a deployment's marshalling decisions
// against the ground truth of the stream they were made on: realized
// frame-level recall, waste and missed horizons — the numbers an operator
// checks before loosening or tightening the conformal knobs. A camera
// stream is a pure function of (task, seed), so the ground truth is
// regenerated from -task/-seed, never shipped.
//
// The decisions come from one of two places. With -server it plays the
// camera side of Figure 1 itself: it creates a session on a running
// eventhitserve (or an eventhitcluster front), streams the covariates of
// its local detector to it, asks for one decision per horizon, prints the
// session's counters, deletes it, and scores what it was told. With -trace it scores the audit trail an eventhitserve
// -trace wrote for a camera on the same (task, seed).
//
//	eventhitserve -task TA10 -trace decisions.jsonl &
//	eventhitreplay -server http://localhost:8080 -task TA10 -seed 99 -horizons 50
//	eventhitreplay -trace decisions.jsonl -task TA10 -seed 99
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"eventhit/internal/features"
	"eventhit/internal/harness"
	"eventhit/internal/mathx"
	"eventhit/internal/serve"
	"eventhit/internal/trace"
	"eventhit/internal/video"
)

func main() {
	var (
		server    = flag.String("server", "", "eventhitserve base URL to stream the camera to")
		tracePath = flag.String("trace", "", "JSON-lines decision trace written by eventhitserve -trace")
		task      = flag.String("task", "TA10", "Table II task (must match the server's)")
		seed      = flag.Int64("seed", 99, "camera stream seed")
		horizons  = flag.Int("horizons", 20, "with -server: number of horizons to stream")
		conf      = flag.Float64("confidence", 0, "with -server: override server confidence (0 = server default)")
		cov       = flag.Float64("coverage", 0, "with -server: override server coverage (0 = server default)")
	)
	flag.Parse()
	if (*server == "") == (*tracePath == "") {
		fmt.Fprintln(os.Stderr, "eventhitreplay: give exactly one of -server or -trace")
		flag.Usage()
		os.Exit(2)
	}
	t, err := harness.TaskByName(*task)
	if err != nil {
		fatal(err)
	}
	st := video.Generate(t.Dataset, mathx.NewRNG(*seed))
	var entries []trace.Entry
	if *server != "" {
		entries, err = stream(*server, t, st, *seed, *horizons, *conf, *cov)
	} else {
		entries, err = readTrace(*tracePath)
	}
	if err != nil {
		fatal(err)
	}
	audit, err := trace.Score(entries, st, t.EventIdx)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trace audit for %s (%d decisions)\n", t.Name, audit.Decisions)
	fmt.Printf("  positive horizons:   %d (missed entirely: %d)\n", audit.Positives, audit.MissedHorizons)
	fmt.Printf("  frame-level recall:  %.3f (%d of %d true frames covered)\n",
		audit.Recall(), audit.CoveredFrames, audit.TrueFrames)
	fmt.Printf("  frames relayed:      %d (wasted: %d, %.1f%%)\n",
		audit.RelayedFrames, audit.WastedFrames, 100*audit.Waste())
}

// stream is the camera: push the stream's covariates to the server, ask for
// one decision per horizon, and return the decisions as trace entries.
func stream(server string, t harness.Task, st *video.Stream, seed int64, horizons int, conf, cov float64) ([]trace.Entry, error) {
	ex, err := features.NewExtractor(st, t.EventIdx, features.DefaultDetector(), seed)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	c := serve.NewClient(server, nil)
	if !c.Healthy(ctx) {
		return nil, fmt.Errorf("server %s not healthy — is eventhitserve running?", server)
	}
	id, err := c.CreateSession(ctx, "")
	if err != nil {
		return nil, err
	}
	// The session is the replay's own; the server keeps no camera state
	// after it.
	defer c.DeleteSession(ctx, id)
	frame := 0
	push := func(upto int) error {
		for frame < upto {
			batch := make([][]float64, 0, 256)
			for ; frame < upto && len(batch) < cap(batch); frame++ {
				batch = append(batch, ex.FrameVector(frame, nil))
			}
			if _, err := c.PushFrames(ctx, id, batch); err != nil {
				return err
			}
		}
		return nil
	}
	horizon := t.Dataset.Horizon
	if err := push(t.Dataset.Window); err != nil {
		return nil, err
	}
	var entries []trace.Entry
	for h := 0; h < horizons && frame+horizon < st.N; h++ {
		resp, err := c.Predict(ctx, id, conf, cov)
		if err != nil {
			return nil, err
		}
		for k, d := range resp.Decisions {
			entries = append(entries, trace.Entry{
				Anchor: resp.Anchor, Horizon: resp.HorizonEnd - resp.Anchor,
				Event: d.Event, EventIndex: k, Relay: d.Relay, Start: d.Start, End: d.End,
			})
		}
		if err := push(frame + horizon); err != nil {
			return nil, err
		}
	}
	sessions, err := c.Sessions(ctx)
	if err != nil {
		return nil, err
	}
	for _, si := range sessions {
		if si.ID == id {
			fmt.Printf("session %s: %d frames ingested, %d predictions, %d relays (%d relayed OK, %d deferred, %d admission-deferred)\n",
				si.ID, si.FramesIngested, si.Predictions, si.Relays, si.RelayedOK, si.DeferredRelays, si.AdmissionDeferred)
		}
	}
	return entries, nil
}

func readTrace(path string) ([]trace.Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadAll(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eventhitreplay:", err)
	os.Exit(1)
}
