// The coordinator is the cluster's tiny consistency core: the one process
// that owns the global spend cap and the shared result cache. Both are
// deliberately cheap — an integer ledger and an LRU — so it never sits on
// the per-frame hot path: workers talk to it only when a lease chunk runs
// dry and on cache lookups for decided relays.
package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"eventhit/internal/cicache"
	"eventhit/internal/obs"
)

// CoordinatorConfig parametrizes the cluster coordinator.
type CoordinatorConfig struct {
	// BudgetUSD is the fleet-wide spend cap the lease ledger enforces;
	// PerFrameUSD prices it. BudgetUSD 0 means uncapped (every lease is
	// granted in full).
	BudgetUSD   float64
	PerFrameUSD float64
	// Cache, when non-nil, hosts a shared result cache workers reach over
	// HTTP (DialRemoteCache).
	Cache *cicache.Config
}

// Coordinator implements the lease and cache endpoints. Create with
// NewCoordinator; it is an http.Handler.
type Coordinator struct {
	cfg CoordinatorConfig
	mux *http.ServeMux
	// maxFrames is the largest n with float64(n)*PerFrameUSD <= BudgetUSD —
	// the cap translated into the integer currency leases are granted in.
	// Granting by integer frames is what makes the global invariant
	// provable: sum(granted) <= maxFrames implies spend <= cap under the
	// same single-multiply arithmetic every report uses.
	maxFrames int64
	cache     *cicache.Cache
	metrics   *obs.Registry

	mu       sync.Mutex
	granted  int64 // frames currently out on lease (net of returns)
	totalOut int64 // lifetime frames granted
	returned int64 // lifetime frames returned
	denied   int64 // lease requests trimmed or refused by the cap
}

// WorkerRef names one worker and where to reach it: URL is http://host:port,
// with no path (the front speaks plain HTTP/1.1 to the worker's root).
type WorkerRef struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// NewCoordinator builds the coordinator and its HTTP surface.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if !(cfg.BudgetUSD >= 0 && cfg.PerFrameUSD >= 0) {
		return nil, fmt.Errorf("cluster: negative budget config %+v", cfg)
	}
	c := &Coordinator{cfg: cfg, metrics: obs.NewRegistry()}
	if cfg.BudgetUSD > 0 && cfg.PerFrameUSD > 0 {
		// Integer search from the float quotient, corrected for rounding in
		// either direction so the invariant is exact under float64 multiply.
		n := int64(cfg.BudgetUSD / cfg.PerFrameUSD)
		for float64(n+1)*cfg.PerFrameUSD <= cfg.BudgetUSD {
			n++
		}
		for n > 0 && float64(n)*cfg.PerFrameUSD > cfg.BudgetUSD {
			n--
		}
		c.maxFrames = n
	}
	if cfg.Cache != nil {
		cache, err := cicache.New(*cfg.Cache)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		c.cache = cache
		cicache.RegisterStats(c.metrics, obs.Labels{"tier": "coordinator"}, cache.Stats)
	}
	c.metrics.GaugeFunc("eventhit_cluster_lease_frames_out", "frames currently out on lease",
		nil, func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.granted) })
	c.metrics.CounterFunc("eventhit_cluster_lease_frames_granted_total", "lifetime frames granted to workers",
		nil, func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.totalOut) })

	m := http.NewServeMux()
	m.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok\n") })
	m.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) { c.metrics.WriteText(w) })
	m.HandleFunc("POST /v1/cluster/lease", c.handleLease)
	m.HandleFunc("POST /v1/cluster/lease/return", c.handleLeaseReturn)
	m.HandleFunc("GET /v1/cluster/budget", c.handleBudget)
	m.HandleFunc("POST /v1/cluster/cache/get", c.handleCacheGet)
	m.HandleFunc("POST /v1/cluster/cache/put", c.handleCachePut)
	m.HandleFunc("POST /v1/cluster/cache/contains", c.handleCacheContains)
	m.HandleFunc("GET /v1/cluster/cache/stats", c.handleCacheStats)
	c.mux = m
	return c, nil
}

func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// Lease grants up to frames of budget headroom, trimmed to what the cap
// still allows (0 when exhausted). Uncapped coordinators grant in full.
func (c *Coordinator) Lease(frames int) int {
	if frames <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	grant := int64(frames)
	if c.maxFrames > 0 {
		if headroom := c.maxFrames - c.granted; grant > headroom {
			grant = headroom
			c.denied++
		}
	}
	if grant < 0 {
		grant = 0
	}
	c.granted += grant
	c.totalOut += grant
	return int(grant)
}

// ReturnLease hands unspent frames back to the pool (a draining worker's
// exit path — without it, headroom a dead worker held would leak).
func (c *Coordinator) ReturnLease(frames int) {
	if frames <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := int64(frames)
	if n > c.granted {
		n = c.granted
	}
	c.granted -= n
	c.returned += n
}

// BudgetStatus is the GET /v1/cluster/budget body.
type BudgetStatus struct {
	BudgetUSD   float64 `json:"budget_usd"`
	PerFrameUSD float64 `json:"per_frame_usd"`
	MaxFrames   int64   `json:"max_frames"`
	OutFrames   int64   `json:"out_frames"`
	GrantedTot  int64   `json:"granted_total"`
	ReturnedTot int64   `json:"returned_total"`
	Denied      int64   `json:"denied"`
}

// Budget returns the ledger snapshot.
func (c *Coordinator) Budget() BudgetStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return BudgetStatus{
		BudgetUSD:   c.cfg.BudgetUSD,
		PerFrameUSD: c.cfg.PerFrameUSD,
		MaxFrames:   c.maxFrames,
		OutFrames:   c.granted,
		GrantedTot:  c.totalOut,
		ReturnedTot: c.returned,
		Denied:      c.denied,
	}
}

type leaseRequest struct {
	Frames int `json:"frames"`
}

type leaseResponse struct {
	Granted int `json:"granted"`
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := decodeJSON(r, &req); err != nil {
		clusterError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Frames <= 0 {
		clusterError(w, http.StatusBadRequest, "lease frames %d must be positive", req.Frames)
		return
	}
	writeJSON(w, leaseResponse{Granted: c.Lease(req.Frames)})
}

func (c *Coordinator) handleLeaseReturn(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := decodeJSON(r, &req); err != nil {
		clusterError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c.ReturnLease(req.Frames)
	writeJSON(w, c.Budget())
}

func (c *Coordinator) handleBudget(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, c.Budget())
}

// ---- hosted cache endpoints ----

type cacheGetRequest struct {
	Key      cicache.Key `json:"key"`
	NowFrame int         `json:"now_frame"`
}

type cacheGetResponse struct {
	Found   bool            `json:"found"`
	Verdict cicache.Verdict `json:"verdict"`
}

type cachePutRequest struct {
	Key      cicache.Key     `json:"key"`
	Verdict  cicache.Verdict `json:"verdict"`
	NowFrame int             `json:"now_frame"`
}

func (c *Coordinator) requireCache(w http.ResponseWriter) bool {
	if c.cache == nil {
		clusterError(w, http.StatusNotFound, "coordinator hosts no cache")
		return false
	}
	return true
}

func (c *Coordinator) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	if !c.requireCache(w) {
		return
	}
	var req cacheGetRequest
	if err := decodeJSON(r, &req); err != nil {
		clusterError(w, http.StatusBadRequest, "%v", err)
		return
	}
	v, ok := c.cache.Get(req.Key, req.NowFrame)
	writeJSON(w, cacheGetResponse{Found: ok, Verdict: v})
}

func (c *Coordinator) handleCachePut(w http.ResponseWriter, r *http.Request) {
	if !c.requireCache(w) {
		return
	}
	var req cachePutRequest
	if err := decodeJSON(r, &req); err != nil {
		clusterError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c.cache.Put(req.Key, req.Verdict, req.NowFrame)
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleCacheContains(w http.ResponseWriter, r *http.Request) {
	if !c.requireCache(w) {
		return
	}
	var req cacheGetRequest
	if err := decodeJSON(r, &req); err != nil {
		clusterError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, cacheGetResponse{Found: c.cache.Contains(req.Key, req.NowFrame)})
}

func (c *Coordinator) handleCacheStats(w http.ResponseWriter, _ *http.Request) {
	if !c.requireCache(w) {
		return
	}
	writeJSON(w, c.cache.Stats())
}

// ---- small HTTP helpers shared by the package ----

const maxClusterBody = 16 << 20

// callTimeout bounds every cluster-internal call made through net/http's
// client: a worker's lease, remote-cache and readiness calls to the
// coordinator. Each is one small JSON exchange a healthy peer answers in well under a
// millisecond, so 2 s is only ever reached by a peer that stopped
// answering; and a predict that waits it out twice — once on its cache
// probe, once on its lease, both taken with the relay path held — still
// answers, deferred, well inside the front's default 30 s proxy timeout.
const callTimeout = 2 * time.Second

func decodeJSON(r *http.Request, out interface{}) error {
	defer r.Body.Close()
	dec := json.NewDecoder(io.LimitReader(r.Body, maxClusterBody))
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("cluster: decoding request: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func clusterError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
