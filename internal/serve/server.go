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
// rate buckets and a global spend cap. A camera creates its session once,
// then pushes and predicts on that session's routes.
//
// API (JSON over HTTP):
//
//	POST   /v1/sessions               {"id": "cam-7"} -> 201 {"id": ...} (id optional)
//	GET    /v1/sessions               -> per-session counters
//	DELETE /v1/sessions/{id}          -> 204; frees the session and its rate bucket
//	POST   /v1/sessions/{id}/frames   {"frames": [[...],[...]]} -> {"buffered": n, "next": absIndex}
//	POST   /v1/sessions/{id}/predict  ?confidence=0.9&coverage=0.9 -> per-event decisions
//	POST   /v1/model                  (bundle in Save format) -> {"generation": g}; atomic hot swap
//	GET    /v1/stats                  -> counters incl. estimated spend
//	GET    /healthz, /v1/healthz      -> 200 "ok" (liveness)
//	GET    /readyz                    -> 200/503 (readiness: not draining, ReadyProbe passing)
//	GET    /metrics                   -> Prometheus text exposition
//	GET    /debug/pprof/*             -> profiling (Config.EnablePprof)
//
// Keep-alive clients are served by the same handlers, whether net/http or
// a connection the server took over answers them (conn.go), and nothing
// about the wire changes.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/drift"
	"eventhit/internal/fleet"
	"eventhit/internal/obs"
	"eventhit/internal/pipeline"
	"eventhit/internal/resilience"
	"eventhit/internal/strategy"
	"eventhit/internal/trace"
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

// ReadHeaderTimeout and IdleTimeout are the connection timeouts the
// binaries set on their http.Servers: a client that connects and sends
// half a request head, or nothing, is closed after ReadHeaderTimeout, and
// a keep-alive connection idle between requests after IdleTimeout. A
// connection an Owner took over keeps both, as net/http applies them.
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
)

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
	// Adapt, when non-nil, turns on the per-session online adaptation loop
	// (drift.Loop): served horizons whose ground truth comes back (relayed
	// ones are CI-labeled for free, skipped ones audited at Adapt.AuditRate)
	// feed the session's coverage monitor and recalibration buffer; a
	// sustained coverage alarm triggers an automatic calibration rebuild and
	// hot swap for that session. Requires CI — the labels come back from the
	// relay — and DefaultCoverage < 1 (the monitor needs a nominal miss
	// budget).
	Adapt *AdaptConfig
	// ReadyProbe, when non-nil, adds an external condition to GET /readyz:
	// cluster workers probe their coordinator here, so a worker whose
	// budget/cache backend vanished drops out of the routing ring instead
	// of serving half-configured.
	ReadyProbe func() error
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

	// draining flips /readyz to 503 (SetDraining): the front tier stops
	// routing new sessions here while in-flight traffic completes.
	draining atomic.Bool

	mu sync.Mutex
	// sessions and order (creation order, for deterministic listing) are
	// guarded by mu.
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

	// relay is the CI channel the offline pipeline uses too — the result
	// cache (Config.Cache or RemoteCache) below the resilient client; nil
	// when Config.CI is unset. Its clock advances only with CI activity:
	// breaker cooldowns elapse in simulated CI milliseconds. Shared by every
	// session: the point of the fleet layer is one CI channel behind many
	// streams. Internally synchronized; read outside mu.
	relay *pipeline.Relay

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
	// owner runs the hot routes' instrumented handlers (see strict.go) on
	// the connections it takes over, without the mux (conn.go).
	owner Owner
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
		relay, err := pipeline.NewRelay(cfg.CI, rc, cfg.PerFrameUSD, resilience.DefaultConfig(0), nil)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.relay = relay
		if cached := relay.Cached(); cached != nil {
			cicache.RegisterStats(s.metrics, nil, rc.Stats)
			s.metrics.CounterFunc("eventhit_cicache_saved_frames_total",
				"billed frames avoided by cache hits", nil,
				func() float64 { return float64(cached.Savings().SavedFrames) })
			s.metrics.CounterFunc("eventhit_cicache_saved_usd_total",
				"CI spend avoided by cache hits", nil,
				func() float64 { return cached.Savings().SavedUSD })
		}
		relay.Client().Register(s.metrics, nil)
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
		// Sessions build their loops from these arguments when they are
		// created; a bad config fails here, not at the first session.
		if _, err := drift.NewLoop(*cfg.Adapt, cfg.DefaultCoverage, mc.NumEvents); err != nil {
			return nil, fmt.Errorf("serve: adapt: %w", err)
		}
	}
	u, err := s.newUnit(cfg.Bundle, 0, swapOriginBoot)
	if err != nil {
		return nil, err
	}
	s.unit.Store(u)
	s.registerServeMetrics()
	s.mux.HandleFunc("POST /v1/sessions", s.instrument("/v1/sessions", s.handleSessionCreate))
	s.mux.HandleFunc("GET /v1/sessions", s.instrument("/v1/sessions", s.handleSessionList))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.instrument("/v1/sessions", s.handleSessionDelete))
	s.owner.Handle(s.mux, s.instrument("/v1/sessions/predict", s.forSession(s.handlePredict)),
		s.instrument("/v1/sessions/frames", s.forSession(s.handleFrames)))
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

// lockRelay takes relayMu; unlockRelay releases it. Without a relay there
// is no relay phase and no adaptation state to serialize, so both are
// no-ops. Lock order: relayMu before mu.
func (s *Server) lockRelay() {
	if s.relay != nil {
		s.relayMu.Lock()
	}
}

func (s *Server) unlockRelay() {
	if s.relay != nil {
		s.relayMu.Unlock()
	}
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
// conditions when it cannot: the server must not be draining, and the
// optional ReadyProbe must pass. New installs the model and the arbiter
// before it returns.
func (s *Server) Ready() (bool, []string) {
	var reasons []string
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
		w.Header()["Content-Type"] = jsonContentType
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(ReadyResponse{Ready: false, Reasons: reasons})
		return
	}
	writeJSON(w, ReadyResponse{Ready: true})
}

// Close closes the connections the server owns (an idle one at once, a
// busy one after its response), waits for their loops to return and takes
// over no more. It also releases cluster-held resources: unspent lease
// headroom goes back to the coordinator so a stopped worker's parked budget
// becomes available to its siblings. Safe to call on any server.
func (s *Server) Close() {
	s.owner.Close()
	if s.arbiter != nil {
		s.arbiter.ReturnLease()
	}
}

// jsonContentType is the Content-Type of every JSON response, assigned as
// a shared, already canonical value: Header.Set would allocate a fresh
// []string per response. net/http only reads a header's values, and an
// append to this one (cap 1) copies it.
var jsonContentType = []string{"application/json"}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header()["Content-Type"] = jsonContentType
	json.NewEncoder(w).Encode(v)
}
