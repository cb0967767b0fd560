// Command eventhitcluster runs the horizontal cluster tier live: it trains
// one bundle, starts a coordinator that leases the global CI budget in
// integer-frame chunks, N serve workers and a front that consistent-hashes
// sessions onto them, then serves the single-server /v1/sessions/* surface
// at cluster scale:
//
//	eventhitcluster -workers 4
//	eventhitcluster -workers 4 -addr :8080 -budget 2 -quick
//
// There is no simulated mode: the tier's throughput is what bench/'s
// cluster_predict workload measures against serve_predict.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"eventhit/internal/cloud"
	"eventhit/internal/cluster"
	"eventhit/internal/fleet"
	"eventhit/internal/harness"
	"eventhit/internal/serve"
)

func main() {
	var (
		task       = flag.String("task", "TA10", "Table II task to train on and deploy")
		seed       = flag.Int64("seed", 5, "base random seed")
		quick      = flag.Bool("quick", true, "use reduced training sizes")
		budget     = flag.Float64("budget", 0.5, "global CI spend cap in USD across the whole cluster (0 = uncapped)")
		workers    = flag.Int("workers", 4, "worker count")
		addr       = flag.String("addr", ":8080", "front listen address")
		confidence = flag.Float64("confidence", 0.9, "default C-CLASSIFY confidence")
		coverage   = flag.Float64("coverage", 0.9, "default C-REGRESS coverage")
		streamRate = flag.Float64("streamrate", 0, "per-session CI admission rate, billed frames/sec (0 = unmetered)")
		drain      = flag.Duration("drain", 10*time.Second, "max time to drain in-flight requests on SIGINT/SIGTERM")
	)
	flag.Parse()
	// A NaN budget or rate would pass every > 0 guard below unnoticed.
	if !(*budget >= 0) {
		fatal(fmt.Errorf("-budget must be >= 0, got %v", *budget))
	}
	if !(*streamRate >= 0) {
		fatal(fmt.Errorf("-streamrate must be >= 0, got %v", *streamRate))
	}
	if *workers < 1 {
		fatal(fmt.Errorf("-workers must be >= 1, got %d", *workers))
	}
	opt := harness.Params{Quick: *quick}.Options()

	// One bundle, then coordinator + N workers + front in this process, each
	// on its own loopback listener, with the front on -addr. One process
	// keeps the demo self-contained; the pieces only talk HTTP, so nothing
	// changes when they move to separate hosts.
	t, err := harness.TaskByName(*task)
	if err != nil {
		fatal(err)
	}
	log.Printf("training %s at startup...", t.String())
	env, err := harness.NewEnv(t, opt, *seed)
	if err != nil {
		fatal(err)
	}
	names := make([]string, t.NumEvents())
	for i, idx := range t.EventIdx {
		names[i] = t.Dataset.Events[idx].Name
	}

	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		BudgetUSD:   *budget,
		PerFrameUSD: cloud.RekognitionPricing().PerFrameUSD,
	})
	if err != nil {
		fatal(err)
	}
	coordHS := &http.Server{Handler: coord, ReadHeaderTimeout: serve.ReadHeaderTimeout, IdleTimeout: serve.IdleTimeout}
	coordURL, err := listenAndServe(coordHS, "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	log.Printf("coordinator on %s (budget $%.2f)", coordURL, *budget)

	var refs []cluster.WorkerRef
	var started []*cluster.Worker
	for i := 0; i < *workers; i++ {
		scfg := serve.Config{
			Bundle:            env.Bundle,
			EventNames:        names,
			PerFrameUSD:       cloud.RekognitionPricing().PerFrameUSD,
			DefaultConfidence: *confidence,
			DefaultCoverage:   *coverage,
		}
		if *budget > 0 || *streamRate > 0 {
			scfg.Fleet = &fleet.ArbiterConfig{
				PerFrameUSD:       scfg.PerFrameUSD,
				SessionRatePerSec: *streamRate,
			}
		}
		id := fmt.Sprintf("worker-%d", i)
		w, err := cluster.NewWorker(cluster.WorkerConfig{ID: id, Coordinator: coordURL, Serve: scfg})
		if err != nil {
			fatal(err)
		}
		url, err := w.Start("127.0.0.1:0", coordURL)
		if err != nil {
			fatal(err)
		}
		started = append(started, w)
		refs = append(refs, cluster.WorkerRef{ID: id, URL: url})
		log.Printf("worker %s on %s", id, url)
	}

	front, err := cluster.NewFront(cluster.FrontConfig{Workers: refs, Coordinator: coordURL})
	if err != nil {
		fatal(err)
	}
	mc := env.Bundle.Model.Config()
	log.Printf("front serving %s on %s over %d workers (M=%d H=%d D=%d, defaults c=%.2f alpha=%.2f)",
		t.Name, *addr, *workers, mc.Window, mc.Horizon, mc.InputDim, *confidence, *coverage)
	log.Printf("cluster metrics at GET /metrics, fleet stats at GET /v1/stats, budget at GET /v1/cluster/budget")

	hs := &http.Server{Addr: *addr, Handler: front, ReadHeaderTimeout: serve.ReadHeaderTimeout, IdleTimeout: serve.IdleTimeout}
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
		front.Close()
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
		for _, w := range started {
			w.Close()
		}
		coordHS.Close()
		log.Printf("cluster stopped cleanly")
	}
}

func listenAndServe(hs *http.Server, addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "eventhitcluster:", err)
	os.Exit(1)
}
