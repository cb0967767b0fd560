// Command eventhitserve runs the marshalling decision service of Figure 1
// over HTTP: load a bundle saved by eventhittrain (or train one on the
// fly), then let camera-side processes push covariates and ask for relay
// decisions.
//
//	eventhittrain -task TA10 -out ta10.bundle
//	eventhitserve -bundle ta10.bundle -task TA10 -addr :8080
//
// Without -bundle the server trains a fresh model for -task at startup
// (useful for demos).
//
//	curl -s -X POST localhost:8080/v1/sessions -d '{"id":"cam-1"}'
//	curl -s -X POST localhost:8080/v1/sessions/cam-1/frames -d '{"frames": [[...]]}'
//	curl -s -X POST 'localhost:8080/v1/sessions/cam-1/predict?confidence=0.95'
//	curl -s localhost:8080/v1/stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/fleet"
	"eventhit/internal/harness"
	"eventhit/internal/serve"
	"eventhit/internal/strategy"
	"eventhit/internal/trace"
	"eventhit/internal/video"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		bundlePath  = flag.String("bundle", "", "bundle file saved by eventhittrain (empty: train at startup)")
		task        = flag.String("task", "TA10", "Table II task (event names; training when no -bundle)")
		confidence  = flag.Float64("confidence", 0.9, "default C-CLASSIFY confidence")
		coverage    = flag.Float64("coverage", 0.9, "default C-REGRESS coverage")
		seed        = flag.Int64("seed", 1, "random seed for on-the-fly training")
		tracePath   = flag.String("trace", "", "append a JSON-lines decision audit trail to this file")
		pprofOn     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (trusted listeners only)")
		cacheOn     = flag.Bool("cache", false, "interpose a content-addressed CI result cache on the server-owned relay")
		budget      = flag.Float64("budget", 0, "global CI spend cap in USD across all sessions (0 = no fleet arbiter)")
		streamRate  = flag.Float64("streamrate", 0, "per-session CI admission rate, billed frames/sec (0 = unmetered)")
		streamBurst = flag.Float64("streamburst", 0, "per-session burst headroom in billed frames (0 = one second of -streamrate)")
		adaptOn     = flag.Bool("adapt", false, "per-session drift monitoring + automatic recalibration swaps (server-owned relay)")
		auditRate   = flag.Float64("auditrate", 0.1, "fraction of skipped horizons ground-truthed by audit relays (with -adapt)")
		drain       = flag.Duration("drain", 10*time.Second, "max time to drain in-flight requests on SIGINT/SIGTERM")
	)
	flag.Parse()
	// A negative or NaN budget or rate silently disables the arbiter (the
	// > 0 guards below never fire), which is almost certainly a typo for a
	// cap the operator wanted. Reject it loudly instead.
	if !(*budget >= 0) {
		fatal(fmt.Errorf("-budget must be >= 0, got %v", *budget))
	}
	if !(*streamRate >= 0) {
		fatal(fmt.Errorf("-streamrate must be >= 0, got %v", *streamRate))
	}
	if !(*streamBurst >= 0) {
		fatal(fmt.Errorf("-streamburst must be >= 0, got %v", *streamBurst))
	}

	t, err := harness.TaskByName(*task)
	if err != nil {
		fatal(err)
	}
	var bundle *strategy.Bundle
	var stream *video.Stream
	if *bundlePath != "" {
		f, err := os.Open(*bundlePath)
		if err != nil {
			fatal(err)
		}
		var fi os.FileInfo
		if fi, err = f.Stat(); err == nil {
			bundle, err = strategy.LoadBundle(f, fi.Size())
		}
		f.Close()
		if err != nil {
			fatal(err)
		}
		log.Printf("loaded bundle %s (%d parameters)", *bundlePath, bundle.Model.NumParams())
	} else {
		log.Printf("no -bundle given: training %s at startup...", t.String())
		env, err := harness.NewEnv(t, harness.Quick(), *seed)
		if err != nil {
			fatal(err)
		}
		bundle = env.Bundle
		stream = env.Stream
	}
	if bundle.Model.Config().NumEvents != t.NumEvents() {
		fatal(fmt.Errorf("bundle has %d events, task %s has %d",
			bundle.Model.Config().NumEvents, t.Name, t.NumEvents()))
	}
	names := make([]string, t.NumEvents())
	for i, idx := range t.EventIdx {
		names[i] = t.Dataset.Events[idx].Name
	}
	scfg := serve.Config{
		Bundle:            bundle,
		EventNames:        names,
		PerFrameUSD:       cloud.RekognitionPricing().PerFrameUSD,
		DefaultConfidence: *confidence,
		DefaultCoverage:   *coverage,
		EnablePprof:       *pprofOn,
	}
	if *cacheOn {
		// The cache interposes on the server-owned relay, which needs the
		// simulated CI — and the CI needs the generated ground-truth
		// stream, so this mode only exists with on-the-fly training.
		if stream == nil {
			fatal(fmt.Errorf("-cache requires on-the-fly training (omit -bundle): the simulated CI backend needs the generated stream"))
		}
		scfg.CI = cloud.NewService(stream, cloud.RekognitionPricing(), cloud.DefaultLatency())
		scfg.CIEvents = t.EventIdx
		cc := cicache.DefaultConfig()
		scfg.Cache = &cc
		log.Printf("CI result cache on: exact match, TTL %d frames (server-owned relay to a simulated CI)",
			cc.TTLFrames)
	}
	if *adaptOn {
		// The adaptation loop needs ground-truth labels, which come back
		// from the server-owned relay to the simulated CI — and that needs
		// the generated stream, so this mode only exists with on-the-fly
		// training (same constraint as -cache).
		if stream == nil {
			fatal(fmt.Errorf("-adapt requires on-the-fly training (omit -bundle): the simulated CI backend needs the generated stream"))
		}
		if *auditRate < 0 || *auditRate > 1 {
			fatal(fmt.Errorf("-auditrate must be in [0,1], got %v", *auditRate))
		}
		if scfg.CI == nil {
			scfg.CI = cloud.NewService(stream, cloud.RekognitionPricing(), cloud.DefaultLatency())
			scfg.CIEvents = t.EventIdx
		}
		ac := serve.DefaultAdaptConfig()
		ac.AuditRate = *auditRate
		scfg.Adapt = &ac
		log.Printf("online adaptation on: %v", ac)
	}
	if *budget > 0 || *streamRate > 0 {
		scfg.Fleet = &fleet.ArbiterConfig{
			PerFrameUSD:       scfg.PerFrameUSD,
			GlobalBudgetUSD:   *budget,
			SessionRatePerSec: *streamRate,
			SessionBurst:      *streamBurst,
		}
		log.Printf("fleet arbiter on: budget $%.4f, per-session rate %.1f frames/s, burst %.0f frames (0 = one second of rate)",
			*budget, *streamRate, *streamBurst)
	}
	if *tracePath != "" {
		tf, err := os.OpenFile(*tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer tf.Close()
		scfg.Trace = trace.NewWriter(tf)
		log.Printf("tracing decisions to %s", *tracePath)
	}
	srv, err := serve.New(scfg)
	if err != nil {
		fatal(err)
	}
	mc := bundle.Model.Config()
	log.Printf("serving %s on %s (M=%d H=%d D=%d, defaults c=%.2f alpha=%.2f)",
		t.Name, *addr, mc.Window, mc.Horizon, mc.InputDim, *confidence, *coverage)
	log.Printf("metrics at GET /metrics (Prometheus text format)")
	if *pprofOn {
		log.Printf("pprof at GET /debug/pprof/")
	}

	// Serve until SIGINT/SIGTERM, then drain: stop accepting, let in-flight
	// requests finish (bounded by -drain), and only then exit — a camera
	// mid-predict gets its decision instead of a reset connection.
	hs := &http.Server{Addr: *addr, Handler: srv, ReadHeaderTimeout: serve.ReadHeaderTimeout, IdleTimeout: serve.IdleTimeout}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		stop()
		log.Printf("shutdown signal received: draining connections (up to %s)", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("drain incomplete: %v", err)
			hs.Close()
		}
		// Keep-alive connections the server took over from net/http are
		// its own: close them (a busy one after its response) and wait for
		// them before the deferred trace close, so no decision is written
		// after the trail is closed.
		srv.Close()
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
		log.Printf("server stopped cleanly")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eventhitserve:", err)
	os.Exit(1)
}
