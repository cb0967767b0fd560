// The coordinator is the cluster's tiny consistency core: the one process
// that owns the global spend cap, the shared result cache, and the
// scene-swap fan-out registry. Everything it owns is deliberately cheap —
// an integer ledger, an LRU, a worker list — so it never sits on the
// per-frame hot path: workers talk to it only when a lease chunk runs dry,
// on cache lookups for decided relays, and when a recalibration fires.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"eventhit/internal/cicache"
	"eventhit/internal/conformal"
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

// Coordinator implements the lease, cache and swap endpoints. Create with
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
	hc        *http.Client

	mu       sync.Mutex
	granted  int64 // frames currently out on lease (net of returns)
	totalOut int64 // lifetime frames granted
	returned int64 // lifetime frames returned
	denied   int64 // lease requests trimmed or refused by the cap
	workers  []WorkerRef
	swaps    int64 // swap publications fanned out
	adopts   int64 // sibling-worker adoptions those publications caused
}

// WorkerRef names one worker and where to reach it: URL is http://host:port,
// with no path (the front speaks plain HTTP/1.1 to the worker's root).
type WorkerRef struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// NewCoordinator builds the coordinator and its HTTP surface.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.BudgetUSD < 0 || cfg.PerFrameUSD < 0 {
		return nil, fmt.Errorf("cluster: negative budget config %+v", cfg)
	}
	c := &Coordinator{cfg: cfg, metrics: obs.NewRegistry(), hc: &http.Client{Timeout: callTimeout}}
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
	c.metrics.CounterFunc("eventhit_cluster_swap_publications_total", "scene recalibrations fanned out",
		nil, func() float64 { c.mu.Lock(); defer c.mu.Unlock(); return float64(c.swaps) })

	m := http.NewServeMux()
	m.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok\n") })
	m.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) { c.metrics.WriteText(w) })
	m.HandleFunc("POST /v1/cluster/lease", c.handleLease)
	m.HandleFunc("POST /v1/cluster/lease/return", c.handleLeaseReturn)
	m.HandleFunc("GET /v1/cluster/budget", c.handleBudget)
	m.HandleFunc("POST /v1/cluster/workers", c.handleWorkerRegister)
	m.HandleFunc("GET /v1/cluster/workers", c.handleWorkerList)
	m.HandleFunc("POST /v1/cluster/swap", c.handleSwap)
	m.HandleFunc("POST /v1/cluster/cache/get", c.handleCacheGet)
	m.HandleFunc("POST /v1/cluster/cache/put", c.handleCachePut)
	m.HandleFunc("POST /v1/cluster/cache/contains", c.handleCacheContains)
	m.HandleFunc("GET /v1/cluster/cache/stats", c.handleCacheStats)
	m.HandleFunc("GET /v1/cluster/cache/config", c.handleCacheConfig)
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

// RegisterWorker adds (or re-registers) a worker for swap fan-out.
func (c *Coordinator) RegisterWorker(ref WorkerRef) error {
	if ref.ID == "" || ref.URL == "" {
		return fmt.Errorf("cluster: worker registration needs id and url, got %+v", ref)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, wr := range c.workers {
		if wr.ID == ref.ID {
			c.workers[i] = ref
			return nil
		}
	}
	c.workers = append(c.workers, ref)
	return nil
}

// Workers lists registered workers in registration order.
func (c *Coordinator) Workers() []WorkerRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]WorkerRef(nil), c.workers...)
}

func (c *Coordinator) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	var ref WorkerRef
	if err := decodeJSON(r, &ref); err != nil {
		clusterError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := c.RegisterWorker(ref); err != nil {
		clusterError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, c.Workers())
}

func (c *Coordinator) handleWorkerList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, c.Workers())
}

// swapEnvelope carries one published recalibration: the scene key, the
// publishing worker (skipped on fan-out — its sessions already adopted
// locally), and the classifier in conformal gob format (base64 in JSON).
type swapEnvelope struct {
	Scene      string `json:"scene"`
	FromWorker string `json:"from_worker"`
	Classifier []byte `json:"classifier"`
}

// SwapResult is the POST /v1/cluster/swap response.
type SwapResult struct {
	WorkersNotified int `json:"workers_notified"`
	Adoptions       int `json:"adoptions"`
}

// PublishSwap fans a classifier out to every registered worker except the
// origin. Fan-out is synchronous and best-effort: a worker that errors is
// skipped (it will recalibrate on its own drift signal) — the origin
// worker's publish must never fail because a sibling is mid-restart.
func (c *Coordinator) PublishSwap(scene, fromWorker string, cls []byte) SwapResult {
	c.mu.Lock()
	targets := make([]WorkerRef, 0, len(c.workers))
	for _, wr := range c.workers {
		if wr.ID != fromWorker {
			targets = append(targets, wr)
		}
	}
	c.swaps++
	c.mu.Unlock()

	var res SwapResult
	for _, wr := range targets {
		body, err := json.Marshal(adoptRequest{Scene: scene, Classifier: cls})
		if err != nil {
			continue
		}
		resp, err := c.hc.Post(wr.URL+"/v1/cluster/adopt", "application/json", bytes.NewReader(body))
		if err != nil {
			continue
		}
		var ar adoptResponse
		ok := resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&ar) == nil
		resp.Body.Close()
		if ok {
			res.WorkersNotified++
			res.Adoptions += ar.Adopted
		}
	}
	c.mu.Lock()
	c.adopts += int64(res.Adoptions)
	c.mu.Unlock()
	return res
}

func (c *Coordinator) handleSwap(w http.ResponseWriter, r *http.Request) {
	var env swapEnvelope
	if err := decodeJSON(r, &env); err != nil {
		clusterError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if env.Scene == "" {
		clusterError(w, http.StatusBadRequest, "swap publication needs a scene key")
		return
	}
	// Validate the payload decodes before bothering any worker.
	if _, err := conformal.LoadClassifier(bytes.NewReader(env.Classifier)); err != nil {
		clusterError(w, http.StatusUnprocessableEntity, "classifier payload: %v", err)
		return
	}
	writeJSON(w, c.PublishSwap(env.Scene, env.FromWorker, env.Classifier))
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

func (c *Coordinator) handleCacheConfig(w http.ResponseWriter, _ *http.Request) {
	if !c.requireCache(w) {
		return
	}
	writeJSON(w, c.cache.Config())
}

// ---- small HTTP helpers shared by the package ----

const maxClusterBody = 16 << 20

// callTimeout bounds every cluster-internal call made through net/http's
// client: a worker's lease, remote-cache, readiness, registration and swap
// calls to the coordinator, and the coordinator's adopt fan-out. Each is
// one small JSON exchange a healthy peer answers in well under a
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
