package main

import (
	"fmt"
	"net"
	"net/http"
	"runtime"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/cluster"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/fleet"
	"eventhit/internal/harness"
	"eventhit/internal/mathx"
	"eventhit/internal/serve"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

// nproc sizes the load generator: one gateway goroutine and one
// connection per core, never more.
func nproc() int { return runtime.NumCPU() }

// trainSeed seeds the trained bundle. The model is the system's state, not
// its input: -seed generates the camera traffic, and keeping the model
// fixed keeps rec and cost_ratio comparable between seeds (training each
// seed's own model doubled their spread).
const trainSeed = 1

// base is what every workload starts from: one trained TA9 bundle and a
// camera stream the model never saw. The camera stream comes from -seed
// plus one, so it differs from the training stream for every seed.
type base struct {
	task harness.Task
	env  *harness.Env
	cam  *camera
}

func newBase(seed int64) (*base, error) {
	env, err := trainEnv()
	if err != nil {
		return nil, err
	}
	return newBaseWith(env, seed)
}

// trainEnv trains and calibrates the bundle every workload serves.
func trainEnv() (*harness.Env, error) {
	task, err := harness.TaskByName(taskName)
	if err != nil {
		return nil, err
	}
	return harness.NewEnv(task, harness.Quick(), trainSeed)
}

// newBaseWith pairs a trained environment with the camera of seed.
func newBaseWith(env *harness.Env, seed int64) (*base, error) {
	cam, err := newCamera(env.Task, env.Cfg, seed+1)
	if err != nil {
		return nil, err
	}
	return &base{task: env.Task, env: env, cam: cam}, nil
}

// camera is the traffic source: a generated stream plus the local
// detector that turns frames into covariate vectors.
type camera struct {
	st  *video.Stream
	ex  *features.Extractor
	cfg dataset.Config
}

func newCamera(task harness.Task, cfg dataset.Config, seed int64) (*camera, error) {
	st := video.Generate(task.Dataset, mathx.NewRNG(seed))
	ex, err := features.NewExtractor(st, task.EventIdx, features.DefaultDetector(), seed)
	if err != nil {
		return nil, err
	}
	return &camera{st: st, ex: ex, cfg: cfg}, nil
}

// frames returns the covariate vectors of stream frames [from, to).
func (c *camera) frames(from, to int) [][]float64 {
	out := make([][]float64, 0, to-from)
	for t := from; t < to; t++ {
		out = append(out, c.ex.FrameVector(t, nil))
	}
	return out
}

// window returns the M frames ending at stream frame t — what a session
// that was fed the stream up to t holds.
func (c *camera) window(t int) [][]float64 { return c.frames(t-c.cfg.Window+1, t+1) }

// listener is one loopback HTTP server started by the benchmark.
type listener struct {
	addr string
	hs   *http.Server
	done chan struct{}
}

// listen serves h on an ephemeral loopback port.
func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{addr: ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return l, nil
}

func (l *listener) url() string { return "http://" + l.addr }

// close stops the server and waits for its accept loop to end.
func (l *listener) close() {
	l.hs.Close()
	<-l.done
}

// bareConfig is the serve configuration of the predict and ingest
// workloads: the caller relays, there is no CI.
func bareConfig(b *strategy.Bundle, task harness.Task) serve.Config {
	names := make([]string, len(task.EventIdx))
	for k, idx := range task.EventIdx {
		names[k] = task.Dataset.Events[idx].Name
	}
	return serve.Config{
		Bundle:            b,
		EventNames:        names,
		PerFrameUSD:       cloud.RekognitionPricing().PerFrameUSD,
		DefaultConfidence: confidence,
		DefaultCoverage:   coverage,
	}
}

// relayBudgetUSD is the arbiter's spend cap on the relay configuration:
// far above anything a run bills, so admission never binds and verdicts
// stay a function of the seed alone.
const relayBudgetUSD = 1e9

// relayConfig is the production configuration of paced_relay: the server
// owns the relay to a CI bound to the camera stream, behind an exact-match
// result cache, a fleet arbiter whose budget and rates never bind, and the
// online adaptation loop.
func relayConfig(b *strategy.Bundle, task harness.Task, cam *camera) serve.Config {
	cfg := bareConfig(b, task)
	cfg.CI = cloud.NewService(cam.st, cloud.RekognitionPricing(), cloud.DefaultLatency())
	cfg.CIEvents = task.EventIdx
	cc := cicache.DefaultConfig()
	cfg.Cache = &cc
	cfg.Fleet = &fleet.ArbiterConfig{PerFrameUSD: cfg.PerFrameUSD, GlobalBudgetUSD: relayBudgetUSD}
	ad := serve.DefaultAdaptConfig()
	cfg.Adapt = &ad
	return cfg
}

// clusterFixture is a coordinator, two bare workers and a front, all on
// loopback in this process.
type clusterFixture struct {
	coordL  *listener
	workers []*cluster.Worker
	urls    []string
	front   *cluster.Front
	frontL  *listener
}

const clusterWorkers = 2

func newCluster(b *strategy.Bundle, task harness.Task) (*clusterFixture, error) {
	cf := &clusterFixture{}
	ok := false
	defer func() {
		if !ok {
			cf.close()
		}
	}()
	cc := cicache.DefaultConfig()
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		BudgetUSD: relayBudgetUSD, PerFrameUSD: cloud.RekognitionPricing().PerFrameUSD, Cache: &cc,
	})
	if err != nil {
		return nil, err
	}
	if cf.coordL, err = listen(coord); err != nil {
		return nil, err
	}
	var refs []cluster.WorkerRef
	for i := 0; i < clusterWorkers; i++ {
		// Each worker infers under its own predictMu, so each needs its own
		// model: core.Model caches activations.
		wb := b
		if i > 0 {
			wb = b.Clone()
		}
		id := fmt.Sprintf("w%d", i)
		w, err := cluster.NewWorker(cluster.WorkerConfig{ID: id, Coordinator: cf.coordL.url(), Serve: bareConfig(wb, task)})
		if err != nil {
			return nil, err
		}
		url, err := w.Start("127.0.0.1:0", cf.coordL.url())
		if err != nil {
			return nil, err
		}
		cf.workers = append(cf.workers, w)
		cf.urls = append(cf.urls, url)
		refs = append(refs, cluster.WorkerRef{ID: id, URL: url})
	}
	if cf.front, err = cluster.NewFront(cluster.FrontConfig{Workers: refs, Coordinator: cf.coordL.url()}); err != nil {
		return nil, err
	}
	if cf.frontL, err = listen(cf.front); err != nil {
		return nil, err
	}
	ok = true
	return cf, nil
}

func (cf *clusterFixture) close() {
	if cf.frontL != nil {
		cf.frontL.close()
	}
	for _, w := range cf.workers {
		w.Close()
	}
	if cf.coordL != nil {
		cf.coordL.close()
	}
}
