package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/cluster"
	"eventhit/internal/core"
	"eventhit/internal/dataset"
	"eventhit/internal/features"
	"eventhit/internal/fleet"
	"eventhit/internal/mathx"
	"eventhit/internal/resilience"
	"eventhit/internal/serve"
	"eventhit/internal/strategy"
	"eventhit/internal/video"
)

// The layer probes time calls into each layer's public functions from
// outside, on inputs taken from the camera stream. They are the same for
// every workload, so a traced run of any workload reports every per-layer
// metric. Micro probes share the time budget equally; probeSlots is how
// many there are, and the few fixed-size jobs (training, cascade build,
// fleet and pipeline runs) cost what they cost.
const (
	probeSlots   = 40
	probeWindows = 64    // distinct stride-1 windows the micro probes rotate over
	probeFrom    = 5_000 // stream frame of the first probe window
	heapSessions = 200
	offlineSpan  = 20_000 // frames the fleet and pipeline probes marshal
	miniPaced    = 0.15   // share of the budget the short paced_relay run gets
)

// prober carries what the probes share.
type prober struct {
	b    *base
	seed int64
	slot time.Duration
	m    metricSet
	recs []dataset.Record
}

func (p *prober) set(name string, v float64, n int) { p.m.set(perLayerSpecs, name, v, n) }

// us times f and records the median call as microseconds.
func (p *prober) us(name string, batch int, f func()) {
	p.set(name, measure(p.slot, batch, f)/1e3, 0)
}

// runProbes measures every workload-independent per-layer metric into m,
// spending about seconds on the time-boxed ones.
func runProbes(b *base, seed int64, seconds float64, m metricSet) error {
	p := &prober{b: b, seed: seed, m: m}
	p.slot = time.Duration(seconds * (1 - miniPaced) / probeSlots * float64(time.Second))
	k := b.env.Bundle.Model.Config().NumEvents
	for i := 0; i < probeWindows; i++ {
		t := probeFrom + i
		p.recs = append(p.recs, dataset.Record{Frame: t, X: b.cam.window(t), Label: make([]bool, k)})
	}
	for _, step := range []func() error{
		p.model, p.featuresAndDataset, p.relayParts, p.serveHandlers, p.clusterTier,
		p.offlineRunners, p.trainingPhases,
		func() error { return p.pacedSample(seconds * miniPaced) },
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// model probes the decision kernel: the three forward passes, the three
// strategy entry points serve can run, and the conformal decision alone.
func (p *prober) model() error {
	bc := p.b.env.Bundle.Clone()
	n := 0
	next := func() dataset.Record { n++; return p.recs[n%len(p.recs)] }
	var out core.Output
	p.us("core.forward_us", 4, func() { bc.Model.PredictInto(next().X, &out) })
	q, err := core.Quantize(bc.Model)
	if err != nil {
		return err
	}
	p.us("core.forward_quant_us", 4, func() { q.PredictInto(next().X, &out) })
	qf, err := core.Quantize(bc.Model)
	if err != nil {
		return err
	}
	p.us("core.forward_quant_frame_us", 4, func() { r := next(); qf.PredictFrameInto(r.X, r.Frame, &out) })

	ehcr := bc.EHCR(confidence, coverage)
	// serve builds its records without a frame index, so the probes do too.
	bare := func() dataset.Record { r := next(); r.Frame = 0; return r }
	p.us("strategy.predict_us", 4, func() { ehcr.Predict(bare()) })
	allocs, _ := allocsPer(200, func() { ehcr.Predict(bare()) })
	p.set("strategy.predict_allocs", allocs, 200)
	p.us("strategy.predict_scored_us", 4, func() { bc.PredictScored(bare(), confidence, coverage) })
	qb, err := bc.WithQuantized()
	if err != nil {
		return err
	}
	quant := qb.EHCR(confidence, coverage)
	p.us("strategy.predict_quant_us", 4, func() { quant.Predict(bare()) })

	outs := make([]core.Output, len(p.recs))
	for i, r := range p.recs {
		outs[i] = bc.Model.Predict(r.X)
	}
	i := 0
	p.us("conformal.decide_us", 16, func() {
		o := outs[i%len(outs)]
		i++
		for k, occ := range bc.Classifier.Predict(o.B, confidence) {
			if occ {
				iv, _ := core.DecodeInterval(o.Theta[k], bc.Tau2)
				bc.Regressor.Adjust(k, iv, coverage)
			}
		}
	})
	return nil
}

// featuresAndDataset probes covariate extraction and record building at
// stride 1, plain and through the incremental window cache.
func (p *prober) featuresAndDataset() error {
	cam := p.b.cam
	span := cam.st.N - cam.cfg.Horizon - cam.cfg.Window - 1
	t := 0
	at := func() int { t = (t + 1) % span; return cam.cfg.Window + t }
	dst := make([]float64, cam.ex.Dim())
	p.us("features.frame_vector_us", 64, func() { cam.ex.FrameVector(at(), dst) })
	var err error
	p.us("features.window_us", 8, func() {
		if _, e := cam.ex.Covariates(at(), cam.cfg.Window); e != nil {
			err = e
		}
	})
	cs, cerr := features.NewCachedSource(cam.ex)
	if cerr != nil {
		return cerr
	}
	p.us("features.window_cached_us", 8, func() {
		if _, e := cs.Covariates(at(), cam.cfg.Window); e != nil {
			err = e
		}
	})
	hits, misses := cs.Cache().Stats()
	p.set("features.window_cache_hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	p.us("dataset.build_record_us", 8, func() {
		if _, e := dataset.BuildRecord(cam.ex, at(), cam.cfg); e != nil {
			err = e
		}
	})
	return err
}

// relayParts probes what a server-owned relay calls between the decision
// and the commit: signing, the cache, the arbiter, the resilient client
// and the CI itself.
func (p *prober) relayParts() error {
	b := p.b
	events := b.task.EventIdx
	rel := video.Interval{Start: 100, End: 300}
	i := 0
	p.us("cicache.sign_us", 8, func() {
		cicache.SignWindow(p.recs[i%len(p.recs)].X, events, events[0], rel, 0)
		i++
	})
	cache, err := cicache.New(cicache.DefaultConfig())
	if err != nil {
		return err
	}
	verdict := cicache.Relativize([]video.Interval{{Start: 120, End: 180}}, rel)
	var n uint64
	// Keys never repeat, so once the cache is full every put also evicts:
	// the steady state of a busy cache.
	p.us("cicache.put_us", 64, func() { n++; cache.Put(cicache.Key{Hi: n, Lo: n}, verdict, 0) })
	const resident = 1024
	hot, err := cicache.New(cicache.DefaultConfig())
	if err != nil {
		return err
	}
	for j := uint64(0); j < resident; j++ {
		hot.Put(cicache.Key{Hi: j, Lo: j}, verdict, 0)
	}
	p.us("cicache.get_hit_us", 64, func() { n++; hot.Get(cicache.Key{Hi: n % resident, Lo: n % resident}, 0) })
	p.us("cicache.get_miss_us", 64, func() { n++; hot.Get(cicache.Key{Hi: n, Lo: ^n}, 0) })

	price := cloud.RekognitionPricing().PerFrameUSD
	open, err := fleet.NewArbiter(fleet.ArbiterConfig{PerFrameUSD: price, GlobalBudgetUSD: relayBudgetUSD})
	if err != nil {
		return err
	}
	p.us("fleet.admit_us", 64, func() { open.Admit("cam", 200) })
	spent, err := fleet.NewArbiter(fleet.ArbiterConfig{PerFrameUSD: price, GlobalBudgetUSD: price})
	if err != nil {
		return err
	}
	p.us("fleet.admit_decline_us", 64, func() { spent.Admit("cam", 200) })

	ci := cloud.NewService(b.cam.st, cloud.RekognitionPricing(), cloud.DefaultLatency())
	win := func() video.Interval { n++; t := int(n % 100_000); return video.Interval{Start: t + 100, End: t + 300} }
	p.us("cloud.detect_us", 16, func() { ci.Detect(events[0], win()) })
	cl := resilience.NewClient(cloud.NewCachedBackend(ci, cache, price), resilience.DefaultConfig(0), nil)
	p.us("resilience.detect_us", 16, func() { cl.DetectKeyed(cicache.Key{Hi: n, Lo: n + 1}, events[0], win()) })
	w := win()
	p.us("resilience.detect_hit_us", 16, func() { cl.DetectKeyed(cicache.Key{Hi: 1, Lo: 0}, events[0], w) })
	return nil
}

// inProcess is a prebuilt request a handler probe calls again and again.
type inProcess struct {
	h    http.Handler
	req  *http.Request
	body []byte
	w    discard
}

func newInProcess(h http.Handler, method, path string, body []byte) *inProcess {
	return &inProcess{h: h, req: httptest.NewRequest(method, path, nil), body: body, w: discard{h: http.Header{}}}
}

func (ip *inProcess) call() {
	if ip.body != nil {
		ip.req.Body = io.NopCloser(bytes.NewReader(ip.body))
	}
	ip.h.ServeHTTP(&ip.w, ip.req)
}

// mustPost is set-up for the handler probes: one in-process request that
// has to succeed.
func mustPost(h http.Handler, path string, body []byte) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code < 200 || rec.Code > 299 {
		return fmt.Errorf("POST %s: HTTP %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return nil
}

// newFilledSession creates session id on h, in process, and pushes stream
// frames [0, upto) so that its index equals the stream index.
func (p *prober) newFilledSession(h http.Handler, id string, upto int) error {
	post := func(path string, in interface{}) error {
		body, err := json.Marshal(in)
		if err != nil {
			return err
		}
		return mustPost(h, path, body)
	}
	return createSession(post, &session{id: id, prep: upto}, p.b.cam)
}

// serveHandlers probes serve in process and over loopback.
func (p *prober) serveHandlers() error {
	b := p.b
	win := b.env.Cfg.Window
	srv, err := serve.New(bareConfig(b.env.Bundle.Clone(), b.task))
	if err != nil {
		return err
	}
	defer srv.Close()
	for g := 0; g < nproc(); g++ {
		if err := p.newFilledSession(srv, sessionID(g, 0), win); err != nil {
			return err
		}
	}
	predict := newInProcess(srv, http.MethodPost, "/v1/sessions/"+sessionID(0, 0)+"/predict", nil)
	p.us("serve.predict_handler_us", 4, predict.call)
	allocs, bytesPer := allocsPer(200, predict.call)
	p.set("serve.predict_allocs", allocs, 200)
	p.set("serve.predict_bytes", bytesPer, 200)

	l, err := listen(srv)
	if err != nil {
		return err
	}
	defer l.close()
	c, err := dial(l.addr)
	if err != nil {
		return err
	}
	defer c.close()
	raw := buildRequest(http.MethodPost, "/v1/sessions/"+sessionID(0, 0)+"/predict", nil)
	overhead := measureDiff(p.slot, func() {
		if _, _, e := c.do(raw); e != nil {
			err = e
		}
	}, predict.call)
	if err != nil {
		return err
	}
	p.set("http.loopback_overhead_us", overhead/1e3, 0)

	const pushFrames = 250
	body, err := framesBody(b.cam.frames(win, win+pushFrames))
	if err != nil {
		return err
	}
	push := newInProcess(srv, http.MethodPost, "/v1/sessions/"+sessionID(0, 0)+"/frames", body)
	ns := measure(p.slot, 1, push.call)
	p.set("serve.frames_handler_us_per_frame", ns/1e3/pushFrames, 0)
	allocs, _ = allocsPer(20, push.call)
	p.set("serve.frames_allocs_per_frame", allocs/pushFrames, 20)

	// Lock scaling: predicts per second from nproc goroutines on distinct
	// sessions over predicts per second from one.
	rate := func(workers int) float64 {
		var done atomic.Int64
		var wg sync.WaitGroup
		window := 2 * p.slot // two runs make one ratio: give each a double slot
		deadline := time.Now().Add(window)
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(ip *inProcess) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					ip.call()
					done.Add(1)
				}
			}(newInProcess(srv, http.MethodPost, "/v1/sessions/"+sessionID(g, 0)+"/predict", nil))
		}
		wg.Wait()
		return float64(done.Load()) / window.Seconds()
	}
	one := rate(1)
	p.set("serve.lock_scaling", rate(nproc())/one, 0)

	// Session density: heap growth per session holding a full window.
	dense, err := serve.New(bareConfig(b.env.Bundle, b.task))
	if err != nil {
		return err
	}
	defer dense.Close()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var create []float64
	for i := 0; i < heapSessions; i++ {
		t0 := time.Now()
		err := mustPost(dense, "/v1/sessions", []byte(fmt.Sprintf(`{"id":"d%03d"}`, i)))
		create = append(create, float64(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	fill, err := framesBody(b.cam.frames(0, win))
	if err != nil {
		return err
	}
	for i := 0; i < heapSessions; i++ {
		if err := mustPost(dense, fmt.Sprintf("/v1/sessions/d%03d/frames", i), fill); err != nil {
			return err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	p.set("serve.session_create_us", medianFloat(create)/1e3, heapSessions)
	p.set("serve.heap_per_session_kb", (float64(after.HeapAlloc)-float64(before.HeapAlloc))/1024/heapSessions, heapSessions)
	return p.relayServer()
}

// relayServer probes the relay configuration in process: the predict
// handler on a camera that advances one frame per call (every relay is a
// cache miss that reaches the CI), and the two operator reads while that
// camera keeps predicting.
func (p *prober) relayServer() error {
	b := p.b
	srv, err := serve.New(relayConfig(b.env.Bundle.Clone(), b.task, b.cam))
	if err != nil {
		return err
	}
	defer srv.Close()
	const id = "relay-probe"
	at := probeFrom
	if err := p.newFilledSession(srv, id, at); err != nil {
		return err
	}
	predict := newInProcess(srv, http.MethodPost, "/v1/sessions/"+id+"/predict", nil)
	step := func() error {
		body, err := framesBody(b.cam.frames(at, at+1))
		if err != nil {
			return err
		}
		at++
		return mustPost(srv, "/v1/sessions/"+id+"/frames", body)
	}
	var per []float64
	for deadline := time.Now().Add(p.slot); len(per) < 3 || time.Now().Before(deadline); {
		if err := step(); err != nil {
			return err
		}
		t0 := time.Now()
		predict.call()
		per = append(per, float64(time.Since(t0)))
	}
	p.set("serve.relay_handler_us", medianFloat(per)/1e3, len(per))

	var stop atomic.Bool
	loadErr := make(chan error, 1)
	go func() {
		for !stop.Load() {
			if err := step(); err != nil {
				loadErr <- err
				return
			}
			newInProcess(srv, http.MethodPost, "/v1/sessions/"+id+"/predict", nil).call()
		}
		loadErr <- nil
	}()
	p.us("serve.stats_us", 4, newInProcess(srv, http.MethodGet, "/v1/stats", nil).call)
	p.us("obs.scrape_us", 4, newInProcess(srv, http.MethodGet, "/metrics", nil).call)
	stop.Store(true)
	return <-loadErr
}

// clusterTier probes the front hop, routing, and the coordinator's
// loopback services.
func (p *prober) clusterTier() error {
	b := p.b
	cf, err := newCluster(b.env.Bundle.Clone(), b.task)
	if err != nil {
		return err
	}
	defer cf.close()
	front, err := dial(cf.frontL.addr)
	if err != nil {
		return err
	}
	defer front.close()
	sessions := nproc() * loadSpecFor(wlClusterPredict).sessionsPerGW
	for i := 0; i < sessions; i++ {
		id := sessionID(i/16, i%16)
		if err := front.call(http.MethodPost, "/v1/sessions", serve.SessionRequest{ID: id}, nil); err != nil {
			return err
		}
	}
	// One routed request per session so far: the spread of sessions over
	// workers, which is what bounds the busier worker's share of the load.
	skew, routed := routeSkew(cf.front.Routed())
	p.set("cluster.route_skew", skew, routed)
	i := 0
	p.us("cluster.route_us", 64, func() { cf.front.RouteFor(sessionID(i%nproc(), i%16)); i++ })

	id := sessionID(0, 0)
	req := serve.FramesRequest{Frames: b.cam.frames(0, b.env.Cfg.Window)}
	if err := front.call(http.MethodPost, "/v1/sessions/"+id+"/frames", req, nil); err != nil {
		return err
	}
	ref, _ := cf.front.RouteFor(id)
	worker, err := dial(ref.URL[len("http://"):])
	if err != nil {
		return err
	}
	defer worker.close()
	raw := buildRequest(http.MethodPost, "/v1/sessions/"+id+"/predict", nil)
	hop := measureDiff(p.slot, func() {
		if _, _, e := front.do(raw); e != nil {
			err = e
		}
	}, func() {
		if _, _, e := worker.do(raw); e != nil {
			err = e
		}
	})
	p.set("cluster.front_hop_us", hop/1e3, 0)

	coord, cerr := dial(cf.coordL.addr)
	if cerr != nil {
		return cerr
	}
	defer coord.close()
	lease := buildRequest(http.MethodPost, "/v1/cluster/lease", []byte(`{"frames":1}`))
	p.us("cluster.lease_rtt_us", 4, func() {
		if _, _, e := coord.do(lease); e != nil {
			err = e
		}
	})
	rc, rerr := cluster.DialRemoteCache(cf.coordL.url(), nil)
	if rerr != nil {
		return rerr
	}
	verdict := cicache.Verdict{Rel: []video.Interval{{Start: 20, End: 80}}}
	var n uint64
	p.us("cluster.remote_cache_put_rtt_us", 4, func() { n++; rc.Put(cicache.Key{Hi: n % 512, Lo: 1}, verdict, 0) })
	p.us("cluster.remote_cache_get_rtt_us", 4, func() { n++; rc.Get(cicache.Key{Hi: n % 512, Lo: 1}, 0) })
	p.us("cluster.stats_fanout_us", 1, func() { cf.front.Stats() })
	return err
}

// offlineRunners probes the cascade, one fleet.Run and the marshaller.
func (p *prober) offlineRunners() error {
	b := p.b
	l, err := newOfflineLoad(b, p.seed) // builds the cascade and the fleet's streams
	if err != nil {
		return err
	}
	p.set("cascade.build_s", l.cascBuild.Seconds(), 1)
	test := b.env.Splits.Test
	i := 0
	p.us("cascade.predict_us", 4, func() { l.casc.Predict(test[i%len(test)]); i++ })
	p.set("cascade.tiny_exit_ratio", l.casc.Stats().ExitRates()[0], int(l.casc.Stats().Horizons))

	for s := range l.streams {
		l.streams[s].Start, l.streams[s].End = 0, offlineSpan
	}
	t0 := time.Now()
	rep, err := fleet.Run(l.streams, l.fcfg)
	if err != nil {
		return err
	}
	p.set("fleet.run_s", time.Since(t0).Seconds(), 1)
	relays := 0
	for _, sr := range rep.Streams {
		relays += sr.Relays
	}
	p.set("fleet.served_ratio", float64(rep.Served)/float64(relays), relays)
	p.set("fleet.shed_ratio", float64(rep.Shed)/float64(relays), relays)

	t0 = time.Now()
	run, _, _, err := l.marsh.Run(0, offlineSpan)
	if err != nil {
		return err
	}
	p.set("pipeline.run_horizons_per_s", float64(run.Horizons)/time.Since(t0).Seconds(), run.Horizons)
	t0 = time.Now()
	tl, err := l.marsh.Collect(0, offlineSpan)
	if err != nil {
		return err
	}
	p.set("pipeline.collect_horizons_per_s", float64(tl.Horizons)/time.Since(t0).Seconds(), tl.Horizons)
	return nil
}

// trainingPhases times the phases of harness.NewEnv by calling the same
// public constructors with the same arguments, one after the other.
func (p *prober) trainingPhases() error {
	task, opt, seed := p.b.task, p.b.env.Opt, int64(trainSeed)
	g := mathx.NewRNG(seed)
	cfg := p.b.env.Cfg
	t0 := time.Now()
	st := video.Generate(task.Dataset, g.Split(1))
	ex, err := features.NewExtractor(st, task.EventIdx, opt.Detector, seed)
	if err != nil {
		return err
	}
	splits, err := dataset.Build(ex, dataset.SampleConfig{
		Config: cfg,
		NTrain: opt.NTrain, NCCalib: opt.NCCalib, NRCalib: opt.NRCalib, NTest: opt.NTest,
		TrainPosFrac: opt.TrainPosFrac,
	}, g.Split(2))
	if err != nil {
		return err
	}
	p.set("dataset.build_s", time.Since(t0).Seconds(), 1)

	mcfg := core.DefaultConfig(ex.Dim(), cfg.Window, cfg.Horizon, task.NumEvents())
	mcfg.Seed = seed
	t0 = time.Now()
	m, err := core.New(mcfg)
	if err != nil {
		return err
	}
	tc := core.DefaultTrainConfig()
	tc.Epochs, tc.Seed, tc.Parallelism = opt.Epochs, seed, opt.TrainParallelism
	if _, err := m.Train(splits.Train, tc); err != nil {
		return err
	}
	train := time.Since(t0).Seconds()
	p.set("core.train_s", train, 1)
	p.set("core.train_records_per_s", float64(opt.NTrain*opt.Epochs)/train, opt.NTrain*opt.Epochs)

	t0 = time.Now()
	if _, err := strategy.Calibrate(m, splits.CCalib, splits.RCalib); err != nil {
		return err
	}
	p.set("strategy.calibrate_s", time.Since(t0).Seconds(), 1)
	t0 = time.Now()
	if _, err := strategy.FitCox(splits.Train, cfg.Horizon, 0.5, strategy.DefaultCoxConfig()); err != nil {
		return err
	}
	if _, err := strategy.NewVQS(ex, cfg.Horizon, cfg.Horizon/10); err != nil {
		return err
	}
	p.set("strategy.baselines_fit_s", time.Since(t0).Seconds(), 1)
	return nil
}

// pacedSample runs paced_relay for a short while, for the metrics that
// only exist under its traffic: tick lateness, deadline misses, the cache
// hit ratio the twins produce, and the CI client's failure counters.
func (p *prober) pacedSample(seconds float64) error {
	if seconds < 1 {
		seconds = 1
	}
	l, err := newHTTPLoad(p.b, wlPacedRelay, seconds)
	if err != nil {
		return err
	}
	defer l.close()
	res := l.measure(seconds)
	l.verify(res)
	if len(res.problems) > 0 {
		return fmt.Errorf("paced sample: %s", res.problems[0])
	}
	for _, name := range []string{
		"loadgen.tick_late_p99_ms", "loadgen.deadline_miss_ratio", "cicache.hit_ratio",
		"cicache.evictions", "resilience.retries", "resilience.breaker_trips",
	} {
		if v, ok := res.metrics[name]; ok {
			p.m[name] = v
		}
	}
	return nil
}
