package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"eventhit/internal/obs"
	"eventhit/internal/serve"
)

// FrontConfig parametrizes the routing front tier.
type FrontConfig struct {
	// Workers is the initial worker set. The ring can be grown/shrunk later
	// with AddWorker/RemoveWorker.
	Workers []WorkerRef
	// Timeout bounds every proxied request (0 = 30s). The front sheds a
	// hung worker by deadline, never by hanging its own caller.
	Timeout time.Duration
	// Coordinator, when set, lets /v1/cluster/budget pass through to the
	// ledger so operators see fleet-wide headroom at the front.
	Coordinator string
}

// Front is the cluster's single client-facing endpoint: it speaks the same
// /v1/sessions/* surface as one serve.Server, consistent-hashes each
// session onto a worker, proxies the data path verbatim, and aggregates
// stats/metrics across the fleet. Create with NewFront; it implements
// http.Handler.
type Front struct {
	cfg     FrontConfig
	hc      *http.Client
	mux     *http.ServeMux
	metrics *obs.Registry

	mu      sync.Mutex
	ring    *Ring
	workers map[string]WorkerRef
	nextID  int64
	// routed counts proxied session-path requests per worker ID.
	routed map[string]int64
}

// NewFront builds the front over the given workers.
func NewFront(cfg FrontConfig) (*Front, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: front needs at least one worker")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	f := &Front{
		cfg:     cfg,
		hc:      &http.Client{Timeout: cfg.Timeout},
		metrics: obs.NewRegistry(),
		ring:    NewRing(DefaultVNodes),
		workers: make(map[string]WorkerRef),
		routed:  make(map[string]int64),
	}
	for _, wr := range cfg.Workers {
		if wr.ID == "" || wr.URL == "" {
			return nil, fmt.Errorf("cluster: worker ref needs id and url, got %+v", wr)
		}
		if _, dup := f.workers[wr.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker ID %q", wr.ID)
		}
		f.workers[wr.ID] = wr
		f.ring.Add(wr.ID)
	}
	f.metrics.GaugeFunc("eventhit_cluster_workers", "workers in the routing ring", nil, func() float64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return float64(f.ring.Len())
	})
	f.metrics.GaugeFunc("eventhit_cluster_workers_ready", "workers passing /readyz", nil, func() float64 {
		ready := 0
		for _, st := range f.probeReady() {
			if st.Ready {
				ready++
			}
		}
		return float64(ready)
	})
	// Fleet-aggregate families: each scrape fans /v1/stats out to the
	// workers and sums. Scrape-time aggregation keeps the front stateless —
	// a restarted front reports the same totals, because the workers own
	// the counters.
	for _, fam := range []struct {
		name, help string
		get        func(serve.Stats) float64
	}{
		{"eventhit_cluster_predictions_total", "predictions served across all workers", func(s serve.Stats) float64 { return float64(s.Predictions) }},
		{"eventhit_cluster_relays_total", "relays decided across all workers", func(s serve.Stats) float64 { return float64(s.Relays) }},
		{"eventhit_cluster_frames_to_cloud_total", "frames relayed to the CI across all workers", func(s serve.Stats) float64 { return float64(s.FramesToCloud) }},
		{"eventhit_cluster_estimated_usd", "estimated CI spend across all workers", func(s serve.Stats) float64 { return s.EstimatedUSD }},
		{"eventhit_cluster_sessions", "sessions across all workers (incl. each worker's default)", func(s serve.Stats) float64 { return float64(s.Sessions) }},
		{"eventhit_cluster_admission_deferred_total", "relays deferred by fleet admission across all workers", func(s serve.Stats) float64 { return float64(s.AdmissionDeferred) }},
		{"eventhit_cluster_shared_swaps_published_total", "scene recalibrations published across all workers", func(s serve.Stats) float64 { return float64(s.SharedSwapsPublished) }},
		{"eventhit_cluster_shared_swaps_adopted_total", "scene recalibrations adopted across all workers", func(s serve.Stats) float64 { return float64(s.SharedSwapAdoptions) }},
	} {
		get := fam.get
		f.metrics.GaugeFunc(fam.name, fam.help, nil, func() float64 {
			var total float64
			for _, ws := range f.fanStats() {
				if ws.Err == "" {
					total += get(ws.Stats)
				}
			}
			return total
		})
	}

	m := http.NewServeMux()
	m.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok\n") })
	m.HandleFunc("GET /readyz", f.handleReadyz)
	m.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) { f.metrics.WriteText(w) })
	m.HandleFunc("POST /v1/sessions", f.handleSessionCreate)
	m.HandleFunc("GET /v1/sessions", f.handleSessionList)
	m.HandleFunc("DELETE /v1/sessions/{id}", f.proxySession("id"))
	m.HandleFunc("POST /v1/sessions/{id}/frames", f.proxySession("id"))
	m.HandleFunc("POST /v1/sessions/{id}/predict", f.proxySession("id"))
	m.HandleFunc("GET /v1/stats", f.handleStats)
	m.HandleFunc("POST /v1/model", f.handleModelBroadcast)
	m.HandleFunc("GET /v1/cluster/workers", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, f.WorkerRefs()) })
	m.HandleFunc("GET /v1/cluster/budget", f.handleBudget)
	f.mux = m
	return f, nil
}

func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

// Registry exposes the front's metrics registry.
func (f *Front) Registry() *obs.Registry { return f.metrics }

// WorkerRefs lists the ring membership in ring (sorted-ID) order.
func (f *Front) WorkerRefs() []WorkerRef {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]WorkerRef, 0, len(f.workers))
	for _, id := range f.ring.Nodes() {
		out = append(out, f.workers[id])
	}
	return out
}

// AddWorker grows the ring; existing sessions whose hash now lands on the
// new worker re-route (consistent hashing bounds that to ~1/N of keys).
func (f *Front) AddWorker(ref WorkerRef) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.workers[ref.ID] = ref
	f.ring.Add(ref.ID)
}

// RemoveWorker shrinks the ring.
func (f *Front) RemoveWorker(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.workers, id)
	f.ring.Remove(id)
}

// RouteFor returns the worker a session ID routes to.
func (f *Front) RouteFor(sessionID string) (WorkerRef, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id := f.ring.Lookup(sessionID)
	wr, ok := f.workers[id]
	return wr, ok
}

// Routed returns the per-worker proxied request counts (tests assert the
// spread; ops dashboards graph it).
func (f *Front) Routed() map[string]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int64, len(f.routed))
	for k, v := range f.routed {
		out[k] = v
	}
	return out
}

// proxy forwards r to worker wr with the same method, path, query and
// body, streaming the response back verbatim — the front adds routing, not
// semantics, to the data path.
func (f *Front) proxy(w http.ResponseWriter, r *http.Request, wr WorkerRef, body io.Reader) {
	// NewRequest reads the length off a bytes.Reader but cannot see the
	// incoming body's: say it, or the worker gets a chunked request of
	// unknown length and cannot presize its ingest buffer.
	length := int64(-1)
	if body == nil {
		body, length = r.Body, r.ContentLength
	}
	ctx, cancel := context.WithTimeout(r.Context(), f.cfg.Timeout)
	defer cancel()
	url := wr.URL + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, url, body)
	if err != nil {
		clusterError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if length >= 0 {
		req.ContentLength = length
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		clusterError(w, http.StatusBadGateway, "worker %s: %v", wr.ID, err)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func (f *Front) proxySession(pathParam string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue(pathParam)
		wr, ok := f.RouteFor(id)
		if !ok {
			clusterError(w, http.StatusServiceUnavailable, "no workers in ring")
			return
		}
		f.mu.Lock()
		f.routed[wr.ID]++
		f.mu.Unlock()
		f.proxy(w, r, wr, nil)
	}
}

// handleSessionCreate routes POST /v1/sessions: the front owns ID
// generation (workers would each generate their own namespace) and then
// routes the create by the final ID, so every later request for that
// session lands on the same worker by pure hashing — no session table.
func (f *Front) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req serve.SessionRequest
	if err := decodeJSON(r, &req); err != nil {
		clusterError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.ID == "" {
		f.mu.Lock()
		f.nextID++
		req.ID = fmt.Sprintf("s-%06d", f.nextID)
		f.mu.Unlock()
	}
	wr, ok := f.RouteFor(req.ID)
	if !ok {
		clusterError(w, http.StatusServiceUnavailable, "no workers in ring")
		return
	}
	f.mu.Lock()
	f.routed[wr.ID]++
	f.mu.Unlock()
	body, err := json.Marshal(req)
	if err != nil {
		clusterError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	f.proxy(w, r, wr, bytes.NewReader(body))
}

// handleSessionList fans GET /v1/sessions out and concatenates, dropping
// each worker's built-in default session — it exists per worker and is not
// cluster-routed.
func (f *Front) handleSessionList(w http.ResponseWriter, r *http.Request) {
	var all []serve.SessionInfo
	for _, wr := range f.WorkerRefs() {
		var list []serve.SessionInfo
		if err := f.getJSON(r.Context(), wr.URL+"/v1/sessions", &list); err != nil {
			clusterError(w, http.StatusBadGateway, "worker %s: %v", wr.ID, err)
			return
		}
		for _, si := range list {
			if si.ID == serve.DefaultSession {
				continue
			}
			all = append(all, si)
		}
	}
	if all == nil {
		all = []serve.SessionInfo{}
	}
	writeJSON(w, all)
}

func (f *Front) getJSON(ctx context.Context, url string, out interface{}) error {
	ctx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// WorkerStats is one worker's slice of the aggregated stats.
type WorkerStats struct {
	ID    string      `json:"id"`
	URL   string      `json:"url"`
	Stats serve.Stats `json:"stats"`
	Err   string      `json:"err,omitempty"`
}

// ClusterStats is the GET /v1/stats body: the fleet total plus the
// per-worker breakdown. Totals sum the additive counters — with a
// coordinator-hosted cache each worker reports the lookups it made itself,
// so the cache counters add up too — and derive the cache hit ratio from
// the summed hits and misses; knobs that are per-worker (breaker state,
// generation, budget) stay in the breakdown only.
type ClusterStats struct {
	Workers   int           `json:"workers"`
	Totals    serve.Stats   `json:"totals"`
	PerWorker []WorkerStats `json:"per_worker"`
	// Routed is proxied requests per worker ID since front start.
	Routed map[string]int64 `json:"routed"`
}

// fanStats fetches every worker's /v1/stats concurrently (bounded by the
// front timeout), returning results in ring order.
func (f *Front) fanStats() []WorkerStats {
	refs := f.WorkerRefs()
	out := make([]WorkerStats, len(refs))
	var wg sync.WaitGroup
	for i, wr := range refs {
		wg.Add(1)
		go func(i int, wr WorkerRef) {
			defer wg.Done()
			ws := WorkerStats{ID: wr.ID, URL: wr.URL}
			if err := f.getJSON(context.Background(), wr.URL+"/v1/stats", &ws.Stats); err != nil {
				ws.Err = err.Error()
			}
			out[i] = ws
		}(i, wr)
	}
	wg.Wait()
	return out
}

// Stats aggregates the fleet's counters.
func (f *Front) Stats() ClusterStats {
	per := f.fanStats()
	return ClusterStats{Workers: len(per), Totals: totalsOf(per), PerWorker: per, Routed: f.Routed()}
}

// totalsOf sums the additive counters of every worker that answered; a
// feature flag is on in the totals when it is on at any of them.
func totalsOf(per []WorkerStats) serve.Stats {
	var t serve.Stats
	for _, ws := range per {
		if ws.Err != "" {
			continue
		}
		s := ws.Stats
		t.FramesIngested += s.FramesIngested
		t.Predictions += s.Predictions
		t.Relays += s.Relays
		t.SkippedHorizons += s.SkippedHorizons
		t.FramesToCloud += s.FramesToCloud
		t.EstimatedUSD += s.EstimatedUSD
		t.BruteForceUSD += s.BruteForceUSD
		t.Sessions += s.Sessions
		t.RelayEnabled = t.RelayEnabled || s.RelayEnabled
		t.RelayedOK += s.RelayedOK
		t.DeferredRelays += s.DeferredRelays
		t.CIFailedAttempts += s.CIFailedAttempts
		t.CIRetried += s.CIRetried
		t.CIBackoffMS += s.CIBackoffMS
		t.CIBusyMS += s.CIBusyMS
		t.CISpentUSD += s.CISpentUSD
		t.BreakerTrips += s.BreakerTrips
		t.FleetEnabled = t.FleetEnabled || s.FleetEnabled
		t.AdmissionDeferred += s.AdmissionDeferred
		t.AdmittedUSD += s.AdmittedUSD
		t.CacheEnabled = t.CacheEnabled || s.CacheEnabled
		t.CacheHits += s.CacheHits
		t.CacheMisses += s.CacheMisses
		t.CacheEntries += s.CacheEntries
		t.CacheEvictions += s.CacheEvictions
		t.CacheSavedUSD += s.CacheSavedUSD
		t.AdaptEnabled = t.AdaptEnabled || s.AdaptEnabled
		t.QuantizedServing = t.QuantizedServing || s.QuantizedServing
		t.AdminSwaps += s.AdminSwaps
		t.RecalibrationSwaps += s.RecalibrationSwaps
		t.DriftObservations += s.DriftObservations
		t.DriftAlarmEpisodes += s.DriftAlarmEpisodes
		t.DriftAudits += s.DriftAudits
		t.DriftAuditFrames += s.DriftAuditFrames
		t.RecalibrationsDeferred += s.RecalibrationsDeferred
		t.SharedSwapsPublished += s.SharedSwapsPublished
		t.SharedSwapAdoptions += s.SharedSwapAdoptions
	}
	if n := t.CacheHits + t.CacheMisses; n > 0 {
		t.CacheHitRatio = float64(t.CacheHits) / float64(n)
	}
	return t
}

func (f *Front) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, f.Stats())
}

// handleModelBroadcast pushes one bundle to every worker — a fleet-wide
// admin swap. All-or-nothing is deliberately NOT promised: the response
// reports per-worker outcomes, and a worker that rejected the bundle keeps
// serving its old generation (the same safety property as a single
// server's 422).
func (f *Front) handleModelBroadcast(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, serve.MaxBundleBytes+1))
	if err != nil {
		clusterError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(body) > serve.MaxBundleBytes {
		clusterError(w, http.StatusRequestEntityTooLarge, "bundle exceeds %d bytes", serve.MaxBundleBytes)
		return
	}
	type pushResult struct {
		ID     string `json:"id"`
		Status int    `json:"status"`
		Err    string `json:"err,omitempty"`
	}
	var results []pushResult
	failures := 0
	for _, wr := range f.WorkerRefs() {
		pr := pushResult{ID: wr.ID}
		ctx, cancel := context.WithTimeout(r.Context(), f.cfg.Timeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, wr.URL+"/v1/model", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/octet-stream")
			var resp *http.Response
			if resp, err = f.hc.Do(req); err == nil {
				pr.Status = resp.StatusCode
				if resp.StatusCode != http.StatusOK {
					b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
					pr.Err = string(b)
				}
				resp.Body.Close()
			}
		}
		if err != nil {
			pr.Err = err.Error()
		}
		cancel()
		if pr.Status != http.StatusOK {
			failures++
		}
		results = append(results, pr)
	}
	code := http.StatusOK
	if failures > 0 {
		code = http.StatusBadGateway
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(results)
}

// WorkerReady is one worker's readiness as the front sees it.
type WorkerReady struct {
	ID      string   `json:"id"`
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
}

func (f *Front) probeReady() []WorkerReady {
	refs := f.WorkerRefs()
	out := make([]WorkerReady, len(refs))
	var wg sync.WaitGroup
	for i, wr := range refs {
		wg.Add(1)
		go func(i int, wr WorkerRef) {
			defer wg.Done()
			st := WorkerReady{ID: wr.ID}
			ctx, cancel := context.WithTimeout(context.Background(), f.cfg.Timeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, wr.URL+"/readyz", nil)
			if err == nil {
				var resp *http.Response
				if resp, err = f.hc.Do(req); err == nil {
					var body serve.ReadyResponse
					json.NewDecoder(resp.Body).Decode(&body)
					resp.Body.Close()
					st.Ready = resp.StatusCode == http.StatusOK
					st.Reasons = body.Reasons
				}
			}
			if err != nil {
				st.Reasons = append(st.Reasons, err.Error())
			}
			out[i] = st
		}(i, wr)
	}
	wg.Wait()
	return out
}

// handleReadyz reports the front ready only when EVERY ring worker is
// ready: a partially-ready cluster would serve some sessions and 502
// others depending on where they hash, which is worse than failing fast at
// the rollout gate.
func (f *Front) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	per := f.probeReady()
	ready := true
	for _, st := range per {
		ready = ready && st.Ready
	}
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(struct {
		Ready   bool          `json:"ready"`
		Workers []WorkerReady `json:"workers"`
	}{ready, per})
}

func (f *Front) handleBudget(w http.ResponseWriter, r *http.Request) {
	if f.cfg.Coordinator == "" {
		clusterError(w, http.StatusNotFound, "front has no coordinator")
		return
	}
	var bs BudgetStatus
	if err := f.getJSON(r.Context(), f.cfg.Coordinator+"/v1/cluster/budget", &bs); err != nil {
		clusterError(w, http.StatusBadGateway, "coordinator: %v", err)
		return
	}
	writeJSON(w, bs)
}
