// Package serve exposes a trained EventHit bundle as an HTTP service —
// the "EventHit can reside on premise or in the cloud" deployment of
// Figure 1. A camera-side process pushes covariate vectors (the output of
// its local lightweight detector) as frames arrive; once per horizon it
// asks for a marshalling decision and receives, per event, whether to
// relay and which absolute frame range. The server tracks what a
// brute-force deployment would have spent so operators can see the saving
// live.
//
// One server hosts many sessions — one per camera stream — all sharing the
// model, the resilient CI client and (when Config.Fleet is set) one
// admission arbiter that meters every session's relays against per-session
// rate buckets and a global spend cap. The un-prefixed endpoints operate on
// the built-in "default" session, so single-stream clients need no session
// bookkeeping.
//
// API (JSON over HTTP):
//
//	POST   /v1/frames   {"frames": [[...],[...]]}     -> {"buffered": n, "next": absIndex}
//	POST   /v1/predict  ?confidence=0.9&coverage=0.9  -> per-event decisions
//	POST   /v1/sessions {"id": "cam-7", "scene": ""}  -> {"id": ...} (both optional)
//	GET    /v1/sessions                               -> per-session counters
//	DELETE /v1/sessions/{id}                          -> 204; frees the session and its rate bucket
//	POST   /v1/sessions/{id}/frames                   -> as /v1/frames, for one session
//	POST   /v1/sessions/{id}/predict                  -> as /v1/predict, for one session
//	POST   /v1/model    (bundle in Save format)       -> {"generation": g}; atomic hot swap
//	GET    /v1/stats                                  -> counters incl. estimated spend
//	GET    /healthz (alias /v1/healthz)               -> 200 "ok" (liveness)
//	GET    /readyz                                    -> 200/503 (readiness: model installed, arbiter live, not draining)
//	GET    /metrics                                   -> Prometheus text exposition
//	GET    /debug/pprof/*                             -> profiling (Config.EnablePprof)
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/conformal"
	"eventhit/internal/dataset"
	"eventhit/internal/fleet"
	"eventhit/internal/obs"
	"eventhit/internal/resilience"
	"eventhit/internal/strategy"
	"eventhit/internal/trace"
	"eventhit/internal/video"
)

// Request hardening limits: a frames POST may not exceed MaxBodyBytes on
// the wire or MaxFramesPerPush decoded frames. Oversized batches are a
// client error (4xx), never an allocation blow-up. MaxSessions bounds the
// session table so an unauthenticated creator cannot grow server memory
// without bound.
const (
	MaxBodyBytes     = 8 << 20
	MaxFramesPerPush = 4096
	MaxSessions      = 256
	MaxSessionID     = 64
)

// DefaultSession is the implicit session behind the un-prefixed endpoints.
const DefaultSession = "default"

// Config parametrizes the server.
type Config struct {
	// Bundle is the trained, calibrated EventHit unit.
	Bundle *strategy.Bundle
	// EventNames label the decisions (len K).
	EventNames []string
	// PerFrameUSD prices relays for the stats endpoint.
	PerFrameUSD float64
	// DefaultConfidence and DefaultCoverage are the knobs used when a
	// predict request does not override them.
	DefaultConfidence, DefaultCoverage float64
	// Trace, when non-nil, receives one audit entry per event decision
	// (see internal/trace).
	Trace *trace.Writer
	// CI, when non-nil, makes the server relay decided frame ranges to the
	// cloud itself through a resilient client (retries, backoff, circuit
	// breaker — see internal/resilience) instead of leaving the relay to
	// the caller. A relay the CI cannot serve marks the decision deferred;
	// it never fails the predict request.
	CI cloud.Backend
	// CIEvents maps decision slot k to the CI's stream event type; nil
	// uses the identity mapping. Only consulted when CI is set.
	CIEvents []int
	// Resilience overrides the CI client policy; nil uses
	// resilience.DefaultConfig(0).
	Resilience *resilience.Config
	// Cache, when non-nil, interposes a content-addressed CI result cache
	// (internal/cicache) between the resilient client and the CI: relays
	// whose covariate window carries an already-seen quantized signature
	// are served from the stored verdict with zero billing and zero CI
	// latency. Requires CI (the server must own the relay to intercept it).
	Cache *cicache.Config
	// RemoteCache interposes a cluster-shared result cache instead of a
	// locally built one — the coordinator-hosted implementation lets ε=0
	// cross-stream dedup fire even when twin cameras land on different
	// workers. Requires CI; mutually exclusive with Cache.
	RemoteCache cicache.Remote
	// Fleet, when non-nil, gates every decided relay through a shared
	// admission arbiter: per-session token buckets in billed frames plus a
	// global spend cap (see fleet.Arbiter). A relay the arbiter declines is
	// marked deferred — the decision is still served, no frames are charged
	// or sent — reusing the graceful-degradation semantics.
	Fleet *fleet.ArbiterConfig
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/*. Off by
	// default: profiling endpoints expose goroutine stacks and should only
	// be reachable on operator-trusted listeners.
	EnablePprof bool
	// Quantized serves predictions through the bundle's int16 quantized
	// twin. The twin is built whenever a bundle is installed — at boot and
	// at every swap — so a pushed bundle whose encoder cannot be quantized
	// is rejected at swap time.
	Quantized bool
	// Adapt, when non-nil, turns on the per-session online adaptation
	// loop: served horizons whose ground truth comes back (relayed ones are
	// CI-labeled for free, skipped ones audited at Adapt.AuditRate) feed a
	// per-session coverage monitor and recalibration buffer; a sustained
	// coverage alarm triggers an automatic calibration rebuild and hot swap
	// for that session. Requires CI — the labels come back from the relay —
	// and DefaultCoverage < 1 (the monitor needs a nominal miss budget).
	Adapt *AdaptConfig
	// SwapPublisher, when non-nil, is invoked after a session with a
	// non-empty scene key cuts a recalibration swap: the cluster worker
	// posts the fresh classifier to the coordinator, which fans it out to
	// sibling workers watching the same scene. Called without any server
	// lock held (it may block on HTTP) but before the predict response is
	// written, so a caller observing the response can rely on the publish
	// having happened. Sessions with the same scene on THIS server adopt
	// the classifier directly, publisher or not.
	SwapPublisher func(scene string, cls *conformal.Classifier)
	// ReadyProbe, when non-nil, adds an external condition to GET /readyz:
	// cluster workers probe their coordinator here, so a worker whose
	// budget/cache backend vanished drops out of the routing ring instead
	// of serving half-configured.
	ReadyProbe func() error
}

// session is one camera stream's ingest and decision state. All fields are
// guarded by Server.mu except unit (atomic — the request path loads it
// lock-free), dec (under decMu) and ad (touched only under relayMu; its
// counters are committed into the mu-guarded fields below by handlePredict).
type session struct {
	id string
	// scene is the session's scene key ("" = untagged): sessions sharing a
	// scene see the same physical setting, so a recalibration cut for one
	// is adopted by the others (locally and, through SwapPublisher, across
	// the cluster).
	scene     string
	ring      frameRing // the last `window` frames
	next      int       // absolute index of the next frame to arrive
	relays    int64
	frames    int64
	predicts  int64
	skipped   int64
	relayedOK int64
	deferred  int64 // CI degradation (retries exhausted, breaker open)
	admitDef  int64 // fleet arbiter declined admission (rate or budget)

	// unit is the session's serving bundle. Global swaps (boot, admin
	// push) install into every session; the adaptation loop swaps only its
	// own session's pointer.
	unit atomic.Pointer[bundleUnit]
	// dec is the stream's decision scratch: it carries the input projections
	// of the frames this session's earlier windows presented, which is why
	// it is the session's and not pooled. Allocated by the first predict, so
	// a session that only ingests holds none. decMu is held around the
	// decision and the copy-out of its scores only — a leaf lock, released
	// before relayMu or mu is taken.
	decMu sync.Mutex
	dec   *strategy.Scratch
	// ad is the online adaptation state (nil unless Config.Adapt is set).
	ad *adapter
	// Committed adaptation counters (absolute values copied from ad under
	// mu at each predict commit, so /v1/stats never reads adapter state).
	driftObs      int64
	driftEpisodes int64
	driftAudits   int64
	auditFrames   int64
	recalSwaps    int64
	recalDeferred int64
	// sharedAdopted counts classifiers this session adopted from a sibling
	// session's recalibration (same scene, local or cluster-published).
	sharedAdopted int64
}

// Server is the HTTP marshalling service. Create with New; it implements
// http.Handler.
type Server struct {
	cfg      Config
	window   int
	horizon  int
	k        int
	inputDim int

	// unit is the globally installed serving bundle (what new sessions
	// start from); gens is the monotonic swap generation counter (boot is
	// 0). adminSwaps counts POST /v1/model swaps and is guarded by mu.
	unit       atomic.Pointer[bundleUnit]
	gens       atomic.Uint64
	adminSwaps int64
	// sharedPublished counts recalibrations published to the cluster via
	// Config.SwapPublisher; guarded by mu.
	sharedPublished int64

	// draining flips /readyz to 503 (SetDraining): the front tier stops
	// routing new sessions here while in-flight traffic completes.
	draining atomic.Bool

	// cacheEps is the signature tolerance relays are signed with — from
	// Config.Cache or the remote cache's effective config.
	cacheEps float64

	mu sync.Mutex
	// sessions and order (creation order, for deterministic listing) are
	// guarded by mu. The default session exists from construction.
	sessions map[string]*session
	order    []string
	seq      int // generated session id counter

	// relaySnap is the committed relay/CI view, guarded by mu. handlePredict
	// refreshes it in the same critical section that commits the request's
	// counters, so /v1/stats (and the func-backed metrics) always see server
	// counters and CI health from one consistent instant instead of tearing
	// across three independent locks.
	relaySnap relaySnapshot

	// relayMu serializes the relay phase of concurrent predicts together
	// with the snapshot commit: without it, two predicts could interleave
	// Detect calls and commits so that neither committed snapshot matches
	// the committed counters. Lock order is relayMu before mu; nothing
	// acquires relayMu while holding mu.
	relayMu sync.Mutex

	// relay is the resilient CI client (nil when Config.CI is unset). Its
	// clock advances only with CI activity: breaker cooldowns elapse in
	// simulated CI milliseconds. Shared by every session: the point of the
	// fleet layer is one CI channel behind many streams.
	relay *resilience.Client

	// cached wraps Config.CI with the shared result cache (nil when
	// Config.Cache is unset); the relay client then talks to it. Internally
	// synchronized; read outside mu.
	cached *cloud.CachedBackend

	// eventSet maps decision slot k to CI event type (CIEvents or the
	// identity), precomputed for cache signing.
	eventSet []int

	// arbiter meters relays across sessions (nil when Config.Fleet is
	// unset). It is internally synchronized and must be consulted outside
	// mu.
	arbiter *fleet.Arbiter

	// metrics is the per-server registry behind GET /metrics. It only ever
	// observes already-computed values (wall-clock request latency, snapshot
	// counters), never feeds the model or the simulated clock, so scraping
	// cannot perturb any seeded output.
	metrics *obs.Registry

	// scratch pools *predictScratch, everything a predict writes before its
	// commit except the model activations (session.dec): the window copied
	// out of the session's ring under mu (a concurrent push overwrites ring
	// memory), the decision and the encoded response. The served model is
	// only read, so predicts on different sessions run in parallel.
	scratch sync.Pool
	// eventJSON[k] is EventNames[k] as a JSON string, escaped once.
	eventJSON [][]byte

	mux *http.ServeMux
}

// relaySnapshot is the relay/CI state captured atomically with the server
// counters at each predict commit.
type relaySnapshot struct {
	stats   resilience.Stats
	usage   cloud.Usage
	breaker resilience.State
}

// New validates cfg and returns a ready server.
func New(cfg Config) (*Server, error) {
	if cfg.Bundle == nil || cfg.Bundle.Model == nil {
		return nil, fmt.Errorf("serve: nil bundle")
	}
	mc := cfg.Bundle.Model.Config()
	if len(cfg.EventNames) != mc.NumEvents {
		return nil, fmt.Errorf("serve: %d event names for %d events", len(cfg.EventNames), mc.NumEvents)
	}
	if cfg.DefaultConfidence <= 0 || cfg.DefaultConfidence > 1 ||
		cfg.DefaultCoverage <= 0 || cfg.DefaultCoverage > 1 {
		return nil, fmt.Errorf("serve: default knobs must be in (0,1]")
	}
	if cfg.CIEvents != nil && len(cfg.CIEvents) != mc.NumEvents {
		return nil, fmt.Errorf("serve: %d CI event mappings for %d events", len(cfg.CIEvents), mc.NumEvents)
	}
	s := &Server{
		cfg:      cfg,
		window:   mc.Window,
		horizon:  mc.Horizon,
		k:        mc.NumEvents,
		inputDim: mc.InputDim,
		sessions: make(map[string]*session),
		metrics:  obs.NewRegistry(),
		mux:      http.NewServeMux(),
	}
	s.scratch.New = func() interface{} { return newPredictScratch(s.window, s.inputDim, s.k) }
	for _, name := range cfg.EventNames {
		js, _ := json.Marshal(name) // a string always marshals
		s.eventJSON = append(s.eventJSON, js)
	}
	s.eventSet = cfg.CIEvents
	if s.eventSet == nil {
		s.eventSet = make([]int, mc.NumEvents)
		for k := range s.eventSet {
			s.eventSet[k] = k
		}
	}
	if (cfg.Cache != nil || cfg.RemoteCache != nil) && cfg.CI == nil {
		return nil, fmt.Errorf("serve: Cache requires CI (the server must own the relay)")
	}
	if cfg.Cache != nil && cfg.RemoteCache != nil {
		return nil, fmt.Errorf("serve: Cache and RemoteCache are mutually exclusive")
	}
	if cfg.CI != nil {
		rcfg := resilience.DefaultConfig(0)
		if cfg.Resilience != nil {
			rcfg = *cfg.Resilience
		}
		backend := cfg.CI
		var rc cicache.Remote
		switch {
		case cfg.Cache != nil:
			cache, err := cicache.New(*cfg.Cache)
			if err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
			rc = cache
		case cfg.RemoteCache != nil:
			rc = cfg.RemoteCache
		}
		if rc != nil {
			ccfg := rc.Config()
			if err := ccfg.Validate(); err != nil {
				return nil, fmt.Errorf("serve: remote cache config: %w", err)
			}
			s.cacheEps = ccfg.Epsilon
			s.cached = cloud.NewCachedBackend(cfg.CI, rc, cfg.PerFrameUSD)
			backend = s.cached
			cicache.RegisterStats(s.metrics, nil, rc.Stats)
			s.metrics.CounterFunc("eventhit_cicache_saved_frames_total",
				"billed frames avoided by cache hits", nil,
				func() float64 { return float64(s.cached.Savings().SavedFrames) })
			s.metrics.CounterFunc("eventhit_cicache_saved_usd_total",
				"CI spend avoided by cache hits", nil,
				func() float64 { return s.cached.Savings().SavedUSD })
		}
		s.relay = resilience.NewClient(backend, rcfg, nil)
		s.relay.Register(s.metrics, nil)
		cloud.RegisterUsage(s.metrics, nil, cfg.CI)
	}
	if cfg.Fleet != nil {
		arb, err := fleet.NewArbiter(*cfg.Fleet)
		if err != nil {
			return nil, err
		}
		s.arbiter = arb
		arb.Register(s.metrics, nil)
	}
	if cfg.Adapt != nil {
		if cfg.CI == nil {
			return nil, fmt.Errorf("serve: Adapt requires CI (ground-truth labels come back from the relay)")
		}
		if err := cfg.Adapt.validate(); err != nil {
			return nil, err
		}
		if cfg.DefaultCoverage >= 1 {
			return nil, fmt.Errorf("serve: Adapt requires DefaultCoverage < 1 (the monitor needs a nominal miss budget)")
		}
	}
	u, err := s.newUnit(cfg.Bundle, 0, swapOriginBoot)
	if err != nil {
		return nil, err
	}
	s.unit.Store(u)
	if _, err := s.newSessionLocked(DefaultSession, ""); err != nil {
		return nil, err
	}
	s.registerServeMetrics()
	s.mux.HandleFunc("POST /v1/frames", s.instrument("/v1/frames", s.forSession("", s.handleFrames)))
	s.mux.HandleFunc("POST /v1/predict", s.instrument("/v1/predict", s.forSession("", s.handlePredict)))
	s.mux.HandleFunc("POST /v1/sessions", s.instrument("/v1/sessions", s.handleSessionCreate))
	s.mux.HandleFunc("GET /v1/sessions", s.instrument("/v1/sessions", s.handleSessionList))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.instrument("/v1/sessions", s.handleSessionDelete))
	s.mux.HandleFunc("POST /v1/sessions/{id}/frames", s.instrument("/v1/sessions/frames", s.forSession("id", s.handleFrames)))
	s.mux.HandleFunc("POST /v1/sessions/{id}/predict", s.instrument("/v1/sessions/predict", s.forSession("id", s.handlePredict)))
	s.mux.HandleFunc("POST /v1/model", s.instrument("/v1/model", s.handleModelPush))
	s.mux.HandleFunc("GET /v1/stats", s.instrument("/v1/stats", s.handleStats))
	s.mux.HandleFunc("GET /v1/healthz", s.instrument("/v1/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	s.mux.Handle("GET /metrics", s.metrics.Handler())
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// registerServeMetrics exposes the marshalling counters as func-backed
// series. Every value function reads one consistent snapshot, so a scrape
// costs a mutex acquisition per family and nothing on the request path.
func (s *Server) registerServeMetrics() {
	fields := []struct {
		name, help string
		get        func(Stats) float64
	}{
		{"eventhit_serve_frames_ingested_total", "frames pushed via /v1/frames", func(st Stats) float64 { return float64(st.FramesIngested) }},
		{"eventhit_serve_predictions_total", "marshalling decisions served", func(st Stats) float64 { return float64(st.Predictions) }},
		{"eventhit_serve_relays_total", "event ranges decided for relay", func(st Stats) float64 { return float64(st.Relays) }},
		{"eventhit_serve_skipped_horizons_total", "per-event horizons not relayed", func(st Stats) float64 { return float64(st.SkippedHorizons) }},
		{"eventhit_serve_frames_to_cloud_total", "frames inside decided relay ranges", func(st Stats) float64 { return float64(st.FramesToCloud) }},
		{"eventhit_serve_relayed_ok_total", "server-side relays served by the CI", func(st Stats) float64 { return float64(st.RelayedOK) }},
		{"eventhit_serve_deferred_relays_total", "server-side relays lost to degradation", func(st Stats) float64 { return float64(st.DeferredRelays) }},
		{"eventhit_serve_admission_deferred_total", "relays declined by the fleet arbiter", func(st Stats) float64 { return float64(st.AdmissionDeferred) }},
		{"eventhit_serve_sessions", "sessions hosted by this server", func(st Stats) float64 { return float64(st.Sessions) }},
		{"eventhit_serve_estimated_usd_total", "estimated spend of decided relays", func(st Stats) float64 { return st.EstimatedUSD }},
		{"eventhit_serve_brute_force_usd_total", "what relaying every horizon would cost", func(st Stats) float64 { return st.BruteForceUSD }},
		{"eventhit_serve_swap_admin_total", "bundles swapped in via POST /v1/model", func(st Stats) float64 { return float64(st.AdminSwaps) }},
		{"eventhit_serve_swap_recalibration_total", "calibration swaps cut by the adaptation loop", func(st Stats) float64 { return float64(st.RecalibrationSwaps) }},
		{"eventhit_serve_drift_observations_total", "realized coverage outcomes fed to drift monitors", func(st Stats) float64 { return float64(st.DriftObservations) }},
		{"eventhit_serve_drift_alarm_episodes_total", "distinct coverage alarm episodes (edge-triggered)", func(st Stats) float64 { return float64(st.DriftAlarmEpisodes) }},
		{"eventhit_serve_drift_audits_total", "skipped horizons ground-truthed by audit relays", func(st Stats) float64 { return float64(st.DriftAudits) }},
		{"eventhit_serve_drift_audit_frames_total", "frames relayed for audits (CI-billed, not marshalling)", func(st Stats) float64 { return float64(st.DriftAuditFrames) }},
		{"eventhit_serve_drift_recalibrations_deferred_total", "recalibration attempts deferred for lack of post-shift positives", func(st Stats) float64 { return float64(st.RecalibrationsDeferred) }},
		{"eventhit_serve_swap_shared_published_total", "recalibrations published to the cluster for scene siblings", func(st Stats) float64 { return float64(st.SharedSwapsPublished) }},
		{"eventhit_serve_swap_shared_adopted_total", "classifiers adopted from a sibling session's recalibration", func(st Stats) float64 { return float64(st.SharedSwapAdoptions) }},
	}
	for _, f := range fields {
		get := f.get
		s.metrics.CounterFunc(f.name, f.help, nil, func() float64 { return get(s.snapshot()) })
	}
	s.metrics.GaugeFunc("eventhit_serve_swap_generation",
		"current model swap generation (boot is 0)", nil,
		func() float64 { return float64(s.gens.Load()) })
}

// decide runs u's decision for rec on the session's scratch, leaving the
// prediction and a copy of the raw scores in sc.
func (sess *session) decide(u *bundleUnit, rec dataset.Record, conf, cov float64, sc *predictScratch) {
	sess.decMu.Lock()
	defer sess.decMu.Unlock()
	if sess.dec == nil {
		sess.dec = new(strategy.Scratch)
	}
	copy(sc.scores, u.decide(rec, conf, cov, sess.dec, &sc.pred))
}

// newSessionLocked creates and registers a session. Caller holds mu (or is
// still inside New, before the server is shared). The session starts on
// the globally installed unit and, when adaptation is on, gets its own
// monitor and recalibration buffer.
func (s *Server) newSessionLocked(id, scene string) (*session, error) {
	sess := &session{id: id, scene: scene, ring: newFrameRing(s.window, s.inputDim)}
	sess.unit.Store(s.unit.Load())
	if s.cfg.Adapt != nil {
		ad, err := newAdapter(*s.cfg.Adapt, s.cfg.DefaultCoverage, s.k)
		if err != nil {
			return nil, err
		}
		sess.ad = ad
	}
	s.sessions[id] = sess
	s.order = append(s.order, id)
	return sess, nil
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with a request counter (by status code) and a
// wall-clock latency histogram. Wall-clock time feeds only the registry —
// never the simulated clock — so instrumentation cannot shift any seeded
// result.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	dur := s.metrics.Histogram("eventhit_http_request_duration_seconds",
		"wall-clock request latency", obs.SecondsBuckets(), obs.Labels{"endpoint": endpoint})
	requests := func(code int) *obs.Counter {
		return s.metrics.Counter("eventhit_http_requests_total", "requests served",
			obs.Labels{"endpoint": endpoint, "code": strconv.Itoa(code)})
	}
	// The code="200" series is resolved once per endpoint — on its first 200,
	// not here, so an endpoint nobody has called exposes no zero sample — and
	// every other code goes through the registry's get-or-create.
	var ok atomic.Pointer[obs.Counter]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		dur.Observe(time.Since(start).Seconds())
		if sw.code != http.StatusOK {
			requests(sw.code).Inc()
			return
		}
		c := ok.Load()
		if c == nil {
			c = requests(http.StatusOK)
			ok.Store(c)
		}
		c.Inc()
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// handleHealthz is liveness: the process answers. Routing decisions belong
// to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// Ready reports whether the server can take traffic, with the failing
// conditions when it cannot: a serving model must be installed, the fleet
// arbiter must be live when one is configured, the optional ReadyProbe
// must pass, and the server must not be draining.
func (s *Server) Ready() (bool, []string) {
	var reasons []string
	if s.unit.Load() == nil {
		reasons = append(reasons, "no model installed")
	}
	if s.cfg.Fleet != nil && s.arbiter == nil {
		reasons = append(reasons, "fleet arbiter not live")
	}
	if s.draining.Load() {
		reasons = append(reasons, "draining")
	}
	if s.cfg.ReadyProbe != nil {
		if err := s.cfg.ReadyProbe(); err != nil {
			reasons = append(reasons, fmt.Sprintf("ready probe: %v", err))
		}
	}
	return len(reasons) == 0, reasons
}

// SetDraining flips the readiness gate: a draining server answers /healthz
// (the process is alive) but fails /readyz, so front tiers stop sending it
// new work while in-flight requests finish.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// ReadyResponse is the GET /readyz body.
type ReadyResponse struct {
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready, reasons := s.Ready()
	if !ready {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(ReadyResponse{Ready: false, Reasons: reasons})
		return
	}
	writeJSON(w, ReadyResponse{Ready: true})
}

// Close releases cluster-held resources: unspent lease headroom goes back
// to the coordinator so a stopped worker's parked budget becomes available
// to its siblings. Safe to call on any server; a no-op without a lease.
func (s *Server) Close() {
	if s.arbiter != nil {
		s.arbiter.ReturnLease()
	}
}

// forSession adapts a session-scoped handler to an endpoint: pathParam ""
// binds the default session (legacy single-stream endpoints), otherwise the
// session is resolved from the named path segment and an unknown id is 404.
func (s *Server) forSession(pathParam string, h func(*session, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := DefaultSession
		if pathParam != "" {
			id = r.PathValue(pathParam)
		}
		s.mu.Lock()
		sess := s.sessions[id]
		s.mu.Unlock()
		if sess == nil {
			httpError(w, http.StatusNotFound, "unknown session %q", id)
			return
		}
		h(sess, w, r)
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// SessionRequest is the POST /v1/sessions body. ID is optional; the server
// generates s1, s2, ... when absent. Scene is an optional scene key:
// sessions sharing one adopt each other's recalibration swaps (see
// Config.SwapPublisher).
type SessionRequest struct {
	ID    string `json:"id"`
	Scene string `json:"scene,omitempty"`
}

// SessionInfo is one session's row in GET /v1/sessions.
type SessionInfo struct {
	ID                string `json:"id"`
	Scene             string `json:"scene,omitempty"`
	FramesIngested    int    `json:"framesIngested"`
	Predictions       int64  `json:"predictions"`
	Relays            int64  `json:"relays"`
	RelayedOK         int64  `json:"relayedOK"`
	DeferredRelays    int64  `json:"deferredRelays"`
	AdmissionDeferred int64  `json:"admissionDeferred"`
	SharedAdoptions   int64  `json:"sharedAdoptions,omitempty"`
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	var req SessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if len(req.ID) > MaxSessionID {
		httpError(w, http.StatusBadRequest, "session id longer than %d bytes", MaxSessionID)
		return
	}
	if len(req.Scene) > MaxSessionID {
		httpError(w, http.StatusBadRequest, "scene key longer than %d bytes", MaxSessionID)
		return
	}
	s.mu.Lock()
	if len(s.sessions) >= MaxSessions {
		s.mu.Unlock()
		httpError(w, http.StatusTooManyRequests, "session table full (%d)", MaxSessions)
		return
	}
	id := req.ID
	if id == "" {
		for {
			s.seq++
			id = fmt.Sprintf("s%d", s.seq)
			if s.sessions[id] == nil {
				break
			}
		}
	} else if s.sessions[id] != nil {
		s.mu.Unlock()
		httpError(w, http.StatusConflict, "session %q already exists", id)
		return
	}
	if _, err := s.newSessionLocked(id, req.Scene); err != nil {
		s.mu.Unlock()
		httpError(w, http.StatusInternalServerError, "creating session: %v", err)
		return
	}
	s.mu.Unlock()
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, SessionRequest{ID: id, Scene: req.Scene})
}

func (s *Server) handleSessionList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]SessionInfo, 0, len(s.order))
	for _, id := range s.order {
		sess := s.sessions[id]
		out = append(out, SessionInfo{
			ID:                sess.id,
			Scene:             sess.scene,
			FramesIngested:    sess.next,
			Predictions:       sess.predicts,
			Relays:            sess.relays,
			RelayedOK:         sess.relayedOK,
			DeferredRelays:    sess.deferred,
			AdmissionDeferred: sess.admitDef,
			SharedAdoptions:   sess.sharedAdopted,
		})
	}
	s.mu.Unlock()
	writeJSON(w, out)
}

// handleSessionDelete removes a session: its ingest buffer and counters are
// dropped and its fleet rate bucket (if any) is released. The default
// session is not deletable — the un-prefixed endpoints depend on it.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == DefaultSession {
		httpError(w, http.StatusBadRequest, "the %q session cannot be deleted", DefaultSession)
		return
	}
	s.mu.Lock()
	if s.sessions[id] == nil {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	delete(s.sessions, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	// The arbiter is internally synchronized; release outside mu to keep
	// the lock order flat.
	if s.arbiter != nil {
		s.arbiter.Release(id)
	}
	w.WriteHeader(http.StatusNoContent)
}

// FramesRequest is the POST /v1/frames body.
type FramesRequest struct {
	Frames [][]float64 `json:"frames"`
}

// FramesResponse acknowledges buffered frames.
type FramesResponse struct {
	Buffered int `json:"buffered"` // frames currently in the window buffer
	Next     int `json:"next"`     // absolute index of the next frame
}

func (s *Server) handleFrames(sess *session, w http.ResponseWriter, r *http.Request) {
	ib := getIngestBuf()
	defer putIngestBuf(ib)
	body := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	if n := r.ContentLength; n > 0 {
		// ReadFrom wants MinRead spare bytes to see EOF; ask for them up
		// front so a body of known length costs one growth, not a doubling
		// series. Capped: a declared length commits no more memory than the
		// pool would keep anyway before the bytes actually arrive.
		ib.body.Grow(int(min(n, maxPooledIngestBytes)) + bytes.MinRead)
	}
	if _, err := ib.body.ReadFrom(body); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "invalid JSON: %v", err)
		return
	}
	// Resolve through the session's atomic unit, not Config.Bundle: the
	// serving model may have been swapped since boot. (Swap validation
	// freezes InputDim server-wide, so this is belt and braces — but it
	// keeps the request path honest about where the model lives.)
	d := s.resolveUnit(sess).inputDim
	var rows int
	var canonical bool
	ib.vals, rows, canonical = scanFrames(ib.body.Bytes(), d, ib.vals)
	if !canonical {
		if rows, canonical = decodeFramesJSON(w, ib, d); !canonical {
			return
		}
	}
	s.mu.Lock()
	sess.ring.push(ib.vals)
	sess.next += rows
	resp := FramesResponse{Buffered: sess.ring.n, Next: sess.next}
	s.mu.Unlock()
	writeJSON(w, resp)
}

// decodeFramesJSON is the fallback for a body scanFrames declined:
// encoding/json decides what the body means, and the checks below what is
// wrong with it — every lenient behaviour and every error string of the
// frames endpoint lives here. The Decoder reads the first JSON value only,
// as this endpoint always has. On success the frames are in ib.vals,
// row-major; otherwise the error response has been written.
func decodeFramesJSON(w http.ResponseWriter, ib *ingestBuf, d int) (rows int, ok bool) {
	var req FramesRequest
	if err := json.NewDecoder(&ib.body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return 0, false
	}
	if len(req.Frames) == 0 {
		httpError(w, http.StatusBadRequest, "no frames")
		return 0, false
	}
	if len(req.Frames) > MaxFramesPerPush {
		httpError(w, http.StatusRequestEntityTooLarge, "batch of %d frames exceeds limit %d", len(req.Frames), MaxFramesPerPush)
		return 0, false
	}
	ib.vals = ib.vals[:0]
	for i, f := range req.Frames {
		if len(f) != d {
			httpError(w, http.StatusBadRequest, "frame %d has %d channels, model expects %d", i, len(f), d)
			return 0, false
		}
		for j, v := range f {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				httpError(w, http.StatusBadRequest, "frame %d channel %d is not finite", i, j)
				return 0, false
			}
		}
		ib.vals = append(ib.vals, f...)
	}
	return len(req.Frames), true
}

// Decision is one event's marshalling verdict.
type Decision struct {
	Event string `json:"event"`
	Relay bool   `json:"relay"`
	// Start and End are absolute frame indices of the range to relay
	// (inclusive); zero when Relay is false.
	Start int `json:"start,omitempty"`
	End   int `json:"end,omitempty"`
	// Deferred reports that the relay did not reach the cloud: either the
	// fleet arbiter declined admission (rate or budget), or the server-side
	// CI relay could not be served (circuit open, retries exhausted). The
	// decision stands but no frames were sent or charged.
	Deferred bool `json:"deferred,omitempty"`
	// Detections is the number of true event segments the CI returned for
	// a served relay. Only set when the server owns the relay.
	Detections int `json:"detections,omitempty"`
}

// PredictResponse is the POST /v1/predict body.
type PredictResponse struct {
	// Anchor is the absolute index of the last buffered frame (T_i).
	Anchor int `json:"anchor"`
	// HorizonEnd is Anchor + H.
	HorizonEnd int        `json:"horizonEnd"`
	Decisions  []Decision `json:"decisions"`
}

// sharedPublish is a recalibration swap awaiting scene-wide propagation:
// local sibling sessions adopt it directly, the cluster hears about it
// through Config.SwapPublisher.
type sharedPublish struct {
	scene  string
	except string // the origin session — already carries the classifier
	cls    *conformal.Classifier
}

func (s *Server) handlePredict(sess *session, w http.ResponseWriter, r *http.Request) {
	sc := s.scratch.Get().(*predictScratch)
	defer s.scratch.Put(sc)
	pub, ok := s.predictCore(sess, w, r, sc)
	if !ok {
		return // predictCore already wrote the error
	}
	if pub != nil {
		// Propagate the fresh classifier before answering, with NO server
		// lock held (predictCore released relayMu on return): sibling
		// sessions on this server adopt directly; the publisher ships it to
		// the coordinator for sibling workers. Publishing before the response
		// makes the propagation observable: when the predict response
		// arrives, scene siblings are already on the new calibration.
		if _, err := s.AdoptClassifier(pub.scene, pub.cls, pub.except); err == nil {
			if s.cfg.SwapPublisher != nil {
				s.cfg.SwapPublisher(pub.scene, pub.cls)
				s.mu.Lock()
				s.sharedPublished++
				s.mu.Unlock()
			}
		}
	}
	sc.out = appendPredictResponse(sc.out[:0], &sc.resp, s.eventJSON)
	w.Header().Set("Content-Type", "application/json")
	w.Write(sc.out)
}

// predictKnob reads one (0,1] knob from the query. Validation uses the
// positive form !(f > 0 && f <= 1): NaN fails every comparison, so
// "confidence=NaN" (which ParseFloat accepts) is rejected rather than
// slipping through a `f <= 0 || f > 1` check.
func predictKnob(w http.ResponseWriter, q url.Values, name string, def float64) (float64, bool) {
	v := q.Get(name)
	if v == "" {
		return def, true
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || !(f > 0 && f <= 1) {
		httpError(w, http.StatusBadRequest, "invalid %s %q", name, v)
		return 0, false
	}
	return f, true
}

// predictCore runs one predict request end to end on sc and commits its
// counters, leaving the response in sc.resp. ok is false when an HTTP error
// was already written. When this request's adaptation step cut a
// recalibration swap on a scene-tagged session it also returns the publish
// work the wrapper performs after every lock is released.
func (s *Server) predictCore(sess *session, w http.ResponseWriter, r *http.Request, sc *predictScratch) (pub *sharedPublish, ok bool) {
	conf, cov := s.cfg.DefaultConfidence, s.cfg.DefaultCoverage
	if r.URL.RawQuery != "" {
		q := r.URL.Query()
		if conf, ok = predictKnob(w, q, "confidence", conf); !ok {
			return nil, false
		}
		if cov, ok = predictKnob(w, q, "coverage", cov); !ok {
			return nil, false
		}
	}
	s.mu.Lock()
	if n := sess.ring.n; n < s.window {
		s.mu.Unlock()
		httpError(w, http.StatusConflict, "window not full: %d of %d frames buffered", n, s.window)
		return nil, false
	}
	// The ring is written in place, so the window must be copied out before
	// mu is released; everything below reads the private copy.
	sess.ring.copyTo(sc.flat)
	anchor := sess.next - 1
	s.mu.Unlock()
	x := sc.x

	// Resolve the serving unit exactly once: everything below — inference,
	// relay labeling, recalibration — sees one consistent model+calibration
	// pair even if a swap lands mid-request.
	u := s.resolveUnit(sess)
	// Inference holds no server lock: it reads the unit and writes sc and
	// the session's decision scratch, told which stream frame the window
	// ends at. The raw existence scores feed the adaptation buffer below.
	sess.decide(u, dataset.Record{X: x, Frame: anchor}, conf, cov, sc)
	scores, pred := sc.scores, &sc.pred
	if s.relay != nil {
		// Hold relayMu across both the Detect calls and the snapshot commit
		// below, so the committed CI view always corresponds to the
		// committed counters (see relayMu field doc).
		s.relayMu.Lock()
		defer s.relayMu.Unlock()
	}
	resp := &sc.resp
	resp.Anchor, resp.HorizonEnd, resp.Decisions = anchor, anchor+s.horizon, resp.Decisions[:0]
	var relays, frames, relayedOK, deferred, admitDef int64
	var audits, auditFrames, skipped int64
	// Ground truth recovered for this horizon, per event: relayed horizons
	// are labeled by the CI verdict itself; skipped ones by audit relays.
	labelKnown, labelTrue := sc.labelKnown, sc.labelTrue
	clear(labelKnown)
	clear(labelTrue)
	for k := 0; k < s.k; k++ {
		d := Decision{Event: s.cfg.EventNames[k]}
		if pred.Occur[k] {
			d.Relay = true
			abs := video.Interval{Start: anchor + pred.OI[k].Start, End: anchor + pred.OI[k].End}
			d.Start, d.End = abs.Start, abs.End
			relays++
			et := s.eventSet[k]
			// Sign the covariate window up front: a relay the cache can
			// already answer is free, so neither the token bucket nor the
			// global budget should see it (matching the fleet scheduler,
			// which consults the cache before its meters). No TOCTOU: the
			// relay path is serialized under relayMu, so the entry cannot
			// be evicted between this check and the keyed Detect below.
			var key cicache.Key
			cachedHit := false
			if s.cached != nil {
				key = cicache.SignWindow(x, s.eventSet, et, pred.OI[k], s.cacheEps)
				cachedHit = s.cached.Cache().Contains(key, abs.Start)
			}
			admitted := true
			if s.arbiter != nil && !cachedHit {
				// The arbiter meters decided relays whether the server or the
				// caller ships the frames: a declined relay is deferred and
				// its frames never count against EstimatedUSD's "to cloud"
				// tally below.
				if v := s.arbiter.Admit(sess.id, abs.Len()); v != fleet.Admit {
					admitted = false
					d.Deferred = true
					admitDef++
				}
			}
			if admitted {
				if !cachedHit {
					frames += int64(abs.Len())
				}
				if s.relay != nil {
					var res resilience.Result
					var err error
					if s.cached != nil {
						// The keyed path makes an identical-looking request a
						// cache hit below the resilient client.
						res, err = s.relay.DetectKeyed(key, et, abs)
					} else {
						res, err = s.relay.Detect(et, abs)
					}
					if err != nil {
						// Graceful degradation: the decision is served to the
						// caller regardless; the relay is recorded as deferred.
						d.Deferred = true
						deferred++
					} else {
						d.Detections = len(res.Det.Found)
						relayedOK++
						// A served relay is a free ground-truth label: the CI
						// just told us whether the event really occurred here.
						labelKnown[k] = true
						labelTrue[k] = len(res.Det.Found) > 0
					}
				}
			}
		} else {
			skipped++
			if sess.ad != nil {
				// Audit accumulator: deterministic, not a coin flip. Audits
				// relay the full horizon purely to label the skip decision;
				// they bypass the fleet arbiter and the decided-relay frame
				// tally (they are billed CI spend, surfaced separately as
				// DriftAuditFrames). Without them the monitor would be blind
				// to exactly the failure drift causes: skipping real events.
				sess.ad.auditAcc += s.cfg.Adapt.AuditRate
				if sess.ad.auditAcc >= 1 {
					sess.ad.auditAcc--
					hz := video.Interval{Start: anchor + 1, End: anchor + s.horizon}
					if res, err := s.relay.Detect(s.eventSet[k], hz); err == nil {
						labelKnown[k] = true
						labelTrue[k] = len(res.Det.Found) > 0
						audits++
						auditFrames += int64(hz.Len())
					}
				}
			}
		}
		resp.Decisions = append(resp.Decisions, d)
	}
	if sess.ad != nil {
		// Still under relayMu: feed the monitor and the recalibration
		// buffer, then let the episode state machine decide whether a
		// recalibration is due. A successful rebuild swaps only this
		// session's unit — drift is per camera; other sessions keep their
		// calibration.
		ad := sess.ad
		anyLabel := false
		for k := 0; k < s.k; k++ {
			if !labelKnown[k] {
				continue
			}
			anyLabel = true
			if labelTrue[k] {
				// Coverage outcome: the event truly occurred — did the
				// conformal layer keep it?
				ad.observeOutcome(pred.Occur[k])
			}
		}
		if anyLabel {
			lbl := sc.label
			for k := range lbl {
				// Unknown labels are recorded false: C-CLASSIFY calibrates
				// on positives only, so an unlabeled (possibly-positive)
				// horizon can never corrupt the rebuilt classifier — it is
				// just not evidence.
				lbl[k] = labelKnown[k] && labelTrue[k]
			}
			if err := ad.rec.Add(scores, lbl); err == nil {
				ad.noteBuffered()
			}
		}
		ad.audits += audits
		ad.auditFrames += auditFrames
		if nu, cls := ad.step(s, u); nu != nil {
			sess.unit.Store(nu)
			if sess.scene != "" {
				pub = &sharedPublish{scene: sess.scene, except: sess.id, cls: cls}
			}
		}
	}
	s.mu.Lock()
	sess.predicts++
	sess.relays += relays
	sess.frames += frames
	sess.skipped += skipped
	sess.relayedOK += relayedOK
	sess.deferred += deferred
	sess.admitDef += admitDef
	if sess.ad != nil {
		// Commit absolute adapter counters so /v1/stats and the metrics
		// never touch adapter state (which relayMu, not mu, guards).
		mobs, meps := sess.ad.mon.Stats()
		sess.driftObs = int64(mobs)
		sess.driftEpisodes = int64(meps)
		sess.driftAudits = sess.ad.audits
		sess.auditFrames = sess.ad.auditFrames
		sess.recalSwaps = sess.ad.recalibs
		sess.recalDeferred = sess.ad.recalDeferred
	}
	if s.relay != nil {
		s.relaySnap = relaySnapshot{
			stats:   s.relay.Stats(),
			usage:   s.cfg.CI.Usage(),
			breaker: s.relay.BreakerState(),
		}
	}
	s.mu.Unlock()
	if s.cfg.Trace != nil {
		// After the commit: a failing trace writer costs the request its
		// response, never the counters of relays already admitted and billed.
		for k, d := range resp.Decisions {
			if err := s.cfg.Trace.Append(trace.Entry{
				Anchor: anchor, Horizon: s.horizon,
				Event: d.Event, EventIndex: k,
				Relay: d.Relay, Start: d.Start, End: d.End,
				Confidence: conf, Coverage: cov,
			}); err != nil {
				httpError(w, http.StatusInternalServerError, "trace append: %v", err)
				return nil, false
			}
		}
	}
	return pub, true
}

// Stats is the GET /v1/stats body, totalled across every session.
// RelayEnabled reports whether the server owns the relay (Config.CI set);
// the CI*/relay numeric fields are always present — a zero must be
// distinguishable from an omitted field, and prior to RelayEnabled a client
// could not tell "relay disabled" from "relay enabled, nothing deferred
// yet" because omitempty dropped both. Only the breakerState string is
// omitted when there is no breaker to report. FleetEnabled plays the same
// role for the admission fields.
type Stats struct {
	FramesIngested  int     `json:"framesIngested"`
	Predictions     int64   `json:"predictions"`
	Relays          int64   `json:"relays"`
	SkippedHorizons int64   `json:"skippedHorizons"`
	FramesToCloud   int64   `json:"framesToCloud"`
	EstimatedUSD    float64 `json:"estimatedUSD"`
	BruteForceUSD   float64 `json:"bruteForceUSD"`
	Sessions        int     `json:"sessions"`
	// Server-side relay health (zero values when the caller relays).
	RelayEnabled     bool    `json:"relayEnabled"`
	RelayedOK        int64   `json:"relayedOK"`
	DeferredRelays   int64   `json:"deferredRelays"`
	CIFailedAttempts int64   `json:"ciFailedAttempts"`
	CIRetried        int64   `json:"ciRetried"`
	CIBackoffMS      float64 `json:"ciBackoffMS"`
	CIBusyMS         float64 `json:"ciBusyMS"`
	CISpentUSD       float64 `json:"ciSpentUSD"`
	BreakerTrips     int64   `json:"breakerTrips"`
	BreakerState     string  `json:"breakerState,omitempty"`
	// Fleet admission control (zero values when Config.Fleet is unset).
	FleetEnabled      bool    `json:"fleetEnabled"`
	AdmissionDeferred int64   `json:"admissionDeferred"`
	AdmittedUSD       float64 `json:"admittedUSD"`
	BudgetUSD         float64 `json:"budgetUSD"`
	// CI result cache (zero values when Config.Cache is unset). CacheEnabled
	// distinguishes "cache off" from "cache on, nothing cached yet".
	CacheEnabled   bool    `json:"cacheEnabled"`
	CacheHits      int64   `json:"cacheHits"`
	CacheMisses    int64   `json:"cacheMisses"`
	CacheHitRatio  float64 `json:"cacheHitRatio"`
	CacheEntries   int     `json:"cacheEntries"`
	CacheEvictions int64   `json:"cacheEvictions"`
	CacheSavedUSD  float64 `json:"cacheSavedUSD"`
	// Hot swap & online adaptation. ModelGeneration and AdminSwaps advance
	// on POST /v1/model regardless of Adapt; the drift/recalibration fields
	// are zero unless Config.Adapt is set (AdaptEnabled distinguishes
	// "adaptation off" from "on, nothing observed yet").
	AdaptEnabled           bool   `json:"adaptEnabled"`
	QuantizedServing       bool   `json:"quantizedServing"`
	ModelGeneration        uint64 `json:"modelGeneration"`
	AdminSwaps             int64  `json:"adminSwaps"`
	RecalibrationSwaps     int64  `json:"recalibrationSwaps"`
	DriftObservations      int64  `json:"driftObservations"`
	DriftAlarmEpisodes     int64  `json:"driftAlarmEpisodes"`
	DriftAudits            int64  `json:"driftAudits"`
	DriftAuditFrames       int64  `json:"driftAuditFrames"`
	RecalibrationsDeferred int64  `json:"recalibrationsDeferred"`
	// Fleet-wide shared swap: recalibrations published to the cluster
	// (SwapPublisher invoked) and classifiers adopted into sessions from a
	// sibling's recalibration (same scene key, local or cluster-delivered).
	SharedSwapsPublished int64 `json:"sharedSwapsPublished"`
	SharedSwapAdoptions  int64 `json:"sharedSwapAdoptions"`
}

// snapshot assembles Stats from one critical section. The relay/CI fields
// come from the snapshot committed by the most recent predict, not from
// live reads of the relay client and CI locks — that is what makes the view
// tear-free: counters and CI health were captured at the same instant.
func (s *Server) snapshot() Stats {
	s.mu.Lock()
	st := Stats{
		Sessions:             len(s.sessions),
		RelayEnabled:         s.relay != nil,
		FleetEnabled:         s.arbiter != nil,
		AdaptEnabled:         s.cfg.Adapt != nil,
		QuantizedServing:     s.cfg.Quantized,
		ModelGeneration:      s.gens.Load(),
		AdminSwaps:           s.adminSwaps,
		SharedSwapsPublished: s.sharedPublished,
	}
	for _, sess := range s.sessions {
		st.FramesIngested += sess.next
		st.Predictions += sess.predicts
		st.Relays += sess.relays
		st.SkippedHorizons += sess.skipped
		st.FramesToCloud += sess.frames
		st.RelayedOK += sess.relayedOK
		st.DeferredRelays += sess.deferred
		st.AdmissionDeferred += sess.admitDef
		st.RecalibrationSwaps += sess.recalSwaps
		st.DriftObservations += sess.driftObs
		st.DriftAlarmEpisodes += sess.driftEpisodes
		st.DriftAudits += sess.driftAudits
		st.DriftAuditFrames += sess.auditFrames
		st.RecalibrationsDeferred += sess.recalDeferred
		st.SharedSwapAdoptions += sess.sharedAdopted
	}
	st.EstimatedUSD = float64(st.FramesToCloud) * s.cfg.PerFrameUSD
	st.BruteForceUSD = float64(st.Predictions) * float64(s.horizon) * float64(s.k) * s.cfg.PerFrameUSD
	if s.relay != nil {
		st.CIFailedAttempts = s.relaySnap.stats.Failures
		st.CIRetried = s.relaySnap.stats.Retries
		st.CIBackoffMS = s.relaySnap.stats.BackoffMS
		st.CIBusyMS = s.relaySnap.stats.BusyMS
		st.CISpentUSD = s.relaySnap.usage.SpentUSD
		st.BreakerTrips = s.relaySnap.stats.Trips
		st.BreakerState = s.relaySnap.breaker.String()
	}
	s.mu.Unlock()
	// The arbiter is internally synchronized; read it outside mu to keep
	// the lock order flat.
	if s.arbiter != nil {
		as := s.arbiter.Stats()
		st.AdmittedUSD = as.AdmittedUSD
		st.BudgetUSD = as.GlobalBudgetUSD
	}
	// The cache is likewise internally synchronized.
	if s.cached != nil {
		st.CacheEnabled = true
		cs := s.cached.Cache().Stats()
		st.CacheHits = cs.Hits
		st.CacheMisses = cs.Misses
		st.CacheHitRatio = cs.HitRatio()
		st.CacheEntries = cs.Entries
		st.CacheEvictions = cs.Evictions
		st.CacheSavedUSD = s.cached.Savings().SavedUSD
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.snapshot())
}
