package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"eventhit/internal/obs"
	"eventhit/internal/serve"
)

// FrontConfig parametrizes the routing front tier.
type FrontConfig struct {
	// Workers is the worker set, fixed for the front's life.
	Workers []WorkerRef
	// Coordinator, when set, lets /v1/cluster/budget pass through to the
	// ledger so operators see fleet-wide headroom at the front. Like a
	// WorkerRef.URL, it is http://host:port.
	Coordinator string
}

// Front is the cluster's single client-facing endpoint: it speaks the same
// /v1/sessions/* surface as one serve.Server, consistent-hashes each
// session onto a worker, proxies the data path verbatim, and aggregates
// stats/metrics across the fleet. Create with NewFront; it implements
// http.Handler.
type Front struct {
	cfg     FrontConfig
	mux     *http.ServeMux
	owner   serve.Owner // the client connections the data path took over
	metrics *obs.Registry
	coord   *hop // nil without a coordinator
	nextID  atomic.Int64

	// The ring never changes after NewFront, so routing takes no lock.
	ring    *Ring
	workers map[string]*upstream
	members []*upstream // in ring (sorted-ID) order
}

// upstream is one ring member: where it is, how to reach it, and how many
// session-path requests the front sent it.
type upstream struct {
	ref    WorkerRef
	hop    *hop
	routed *atomic.Int64 // apart from ref and hop, which every request reads
}

// NewFront builds the front over the given workers.
func NewFront(cfg FrontConfig) (*Front, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: front needs at least one worker")
	}
	f := &Front{cfg: cfg, metrics: obs.NewRegistry(), ring: NewRing(DefaultVNodes), workers: map[string]*upstream{}}
	if cfg.Coordinator != "" {
		var err error
		if f.coord, err = newHop(cfg.Coordinator); err != nil {
			return nil, err
		}
	}
	for _, wr := range cfg.Workers {
		if wr.ID == "" || wr.URL == "" {
			return nil, fmt.Errorf("cluster: worker ref needs id and url, got %+v", wr)
		}
		if _, dup := f.workers[wr.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker ID %q", wr.ID)
		}
		h, err := newHop(wr.URL)
		if err != nil {
			return nil, err
		}
		f.workers[wr.ID] = &upstream{ref: wr, hop: h, routed: new(atomic.Int64)}
		f.ring.Add(wr.ID)
	}
	for _, id := range f.ring.Nodes() {
		f.members = append(f.members, f.workers[id])
	}
	f.metrics.GaugeFunc("eventhit_cluster_workers", "workers in the routing ring", nil, func() float64 {
		return float64(len(f.members))
	})
	f.metrics.GaugeFunc("eventhit_cluster_workers_ready", "workers passing /readyz", nil, func() float64 {
		ready := 0
		for _, st := range f.probeReady(context.Background()) {
			if st.Ready {
				ready++
			}
		}
		return float64(ready)
	})
	f.metrics.GaugeFunc("eventhit_http_owned_connections",
		"client connections the front answers itself, taken over from net/http by a data-path route", nil,
		func() float64 { return float64(f.owner.Len()) })
	// Fleet-aggregate families: each scrape fans /v1/stats out to the
	// workers once, and every family sums that one fan-out. Scrape-time
	// aggregation keeps the front stateless — a restarted front reports the
	// same totals, because the workers own the counters.
	var per []WorkerStats // written and read under the registry's lock
	f.metrics.OnScrape(func() { per = f.fanStats(context.Background()) })
	for _, fam := range []struct {
		name, help string
		get        func(serve.Stats) float64
	}{
		{"eventhit_cluster_predictions_total", "predictions served across all workers", func(s serve.Stats) float64 { return float64(s.Predictions) }},
		{"eventhit_cluster_relays_total", "relays decided across all workers", func(s serve.Stats) float64 { return float64(s.Relays) }},
		{"eventhit_cluster_frames_to_cloud_total", "frames relayed to the CI across all workers", func(s serve.Stats) float64 { return float64(s.FramesToCloud) }},
		{"eventhit_cluster_estimated_usd", "estimated CI spend across all workers", func(s serve.Stats) float64 { return s.EstimatedUSD }},
		{"eventhit_cluster_sessions", "sessions across all workers", func(s serve.Stats) float64 { return float64(s.Sessions) }},
		{"eventhit_cluster_admission_deferred_total", "relays deferred by fleet admission across all workers", func(s serve.Stats) float64 { return float64(s.AdmissionDeferred) }},
	} {
		get := fam.get
		f.metrics.GaugeFunc(fam.name, fam.help, nil, func() float64 {
			var total float64
			for _, ws := range per {
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
	m.HandleFunc("DELETE /v1/sessions/{id}", f.proxySession)
	// The data path runs on the connections the owner takes over; the hop
	// streams each body to the worker as it arrives.
	f.owner.Handle(m, f.proxySession, f.proxySession)
	m.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) { writeJSON(w, f.stats(r.Context())) })
	m.HandleFunc("POST /v1/model", f.handleModelBroadcast)
	m.HandleFunc("GET /v1/cluster/workers", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, f.WorkerRefs()) })
	m.HandleFunc("GET /v1/cluster/budget", f.handleBudget)
	f.mux = m
	return f, nil
}

func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

// Close closes the client connections the front owns (an idle one at once,
// a busy one after its response) and waits for their loops to return.
// http.Server's Shutdown closes those it serves; its Close does not.
func (f *Front) Close() { f.owner.Close() }

// WorkerRefs lists the ring membership in ring (sorted-ID) order.
func (f *Front) WorkerRefs() []WorkerRef {
	refs := make([]WorkerRef, len(f.members))
	for i, u := range f.members {
		refs[i] = u.ref
	}
	return refs
}

// RouteFor returns the worker a session ID routes to.
func (f *Front) RouteFor(sessionID string) (WorkerRef, bool) {
	u, ok := f.workers[f.ring.Lookup(sessionID)]
	if !ok {
		return WorkerRef{}, false
	}
	return u.ref, true
}

// routeTo returns the worker a session ID routes to and counts the request.
func (f *Front) routeTo(sessionID string) *upstream {
	u := f.workers[f.ring.Lookup(sessionID)]
	u.routed.Add(1)
	return u
}

// Routed returns the per-worker proxied request counts (tests assert the
// spread; ops dashboards graph it).
func (f *Front) Routed() map[string]int64 {
	out := make(map[string]int64)
	for _, u := range f.members {
		if v := u.routed.Load(); v > 0 {
			out[u.ref.ID] = v
		}
	}
	return out
}

// proxy forwards r to u with the same method, path, query and Content-Type
// and copies the reply's status, Content-Type and body back: the front adds
// routing, not semantics, to the data path. The body keeps its declared
// length (the worker presizes its ingest buffer by it); -1 goes chunked.
// The reply's body is read whole before its status is written, so a reply
// cut short is a 502, never half a body. With skipConflict a 409 is not
// written, and proxy reports it.
func (f *Front) proxy(w http.ResponseWriter, r *http.Request, u *upstream, body io.Reader, length int64, skipConflict bool) (conflict bool) {
	err := u.hop.do(r.Context(), r.Method, r.URL.RequestURI(), r.Header.Get("Content-Type"), body, length, func(rp *reply) error {
		if conflict = skipConflict && rp.status == http.StatusConflict; conflict {
			return nil
		}
		b := rp.data
		if b == nil {
			var err error
			if b, err = io.ReadAll(rp.body); err != nil {
				return err
			}
		}
		if rp.ctype != nil {
			w.Header()["Content-Type"] = rp.ctype
		}
		w.WriteHeader(rp.status)
		w.Write(b)
		return nil
	})
	if err != nil {
		clusterError(w, http.StatusBadGateway, "worker %s: %v", u.ref.ID, err)
		return false
	}
	return conflict
}

func (f *Front) proxySession(w http.ResponseWriter, r *http.Request) {
	f.proxy(w, r, f.routeTo(r.PathValue("id")), r.Body, r.ContentLength, false)
}

// maxMintTries bounds the IDs one id-less create tries. A worker answers
// 409 to a minted ID a client named explicitly or a restarted front minted
// before; the front then takes the next. The last try's 409 is the reply.
const maxMintTries = 64

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
	mint := req.ID == ""
	for try := 1; ; try++ {
		if mint {
			req.ID = fmt.Sprintf("s-%06d", f.nextID.Add(1))
		}
		body, err := json.Marshal(req)
		if err != nil {
			clusterError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if !f.proxy(w, r, f.routeTo(req.ID), bytes.NewReader(body), int64(len(body)), mint && try < maxMintTries) {
			return
		}
	}
}

// handleSessionList fans GET /v1/sessions out and concatenates the
// workers' lists in ring order.
func (f *Front) handleSessionList(w http.ResponseWriter, r *http.Request) {
	all := []serve.SessionInfo{}
	for _, u := range f.members {
		var list []serve.SessionInfo
		if err := getJSON(r.Context(), u.hop, "/v1/sessions", &list); err != nil {
			clusterError(w, http.StatusBadGateway, "worker %s: %v", u.ref.ID, err)
			return
		}
		all = append(all, list...)
	}
	writeJSON(w, all)
}

// getJSON GETs path from h and decodes a 200 reply into out.
func getJSON(ctx context.Context, h *hop, path string, out interface{}) error {
	return h.do(ctx, http.MethodGet, path, "", nil, 0, func(rp *reply) error {
		if rp.status != http.StatusOK {
			return fmt.Errorf("HTTP %d", rp.status)
		}
		return json.NewDecoder(rp.body).Decode(out)
	})
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
func (f *Front) fanStats(ctx context.Context) []WorkerStats {
	ups := f.members
	out := make([]WorkerStats, len(ups))
	var wg sync.WaitGroup
	for i, u := range ups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := WorkerStats{ID: u.ref.ID, URL: u.ref.URL}
			if err := getJSON(ctx, u.hop, "/v1/stats", &ws.Stats); err != nil {
				ws.Err = err.Error()
			}
			out[i] = ws
		}()
	}
	wg.Wait()
	return out
}

// Stats aggregates the fleet's counters.
func (f *Front) Stats() ClusterStats { return f.stats(context.Background()) }

func (f *Front) stats(ctx context.Context) ClusterStats {
	per := f.fanStats(ctx)
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
		t.AdminSwaps += s.AdminSwaps
		t.RecalibrationSwaps += s.RecalibrationSwaps
		t.DriftObservations += s.DriftObservations
		t.DriftAlarmEpisodes += s.DriftAlarmEpisodes
		t.DriftAudits += s.DriftAudits
		t.DriftAuditFrames += s.DriftAuditFrames
		t.RecalibrationsDeferred += s.RecalibrationsDeferred
	}
	if n := t.CacheHits + t.CacheMisses; n > 0 {
		t.CacheHitRatio = float64(t.CacheHits) / float64(n)
	}
	return t
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
	for _, u := range f.members {
		pr := pushResult{ID: u.ref.ID}
		err := u.hop.do(r.Context(), http.MethodPost, "/v1/model", "application/octet-stream", bytes.NewReader(body), int64(len(body)), func(rp *reply) error {
			pr.Status = rp.status
			if rp.status != http.StatusOK {
				b, _ := io.ReadAll(io.LimitReader(rp.body, 4096))
				pr.Err = string(b)
			}
			return nil
		})
		if err != nil {
			pr.Err = err.Error()
		}
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

func (f *Front) probeReady(ctx context.Context) []WorkerReady {
	ups := f.members
	out := make([]WorkerReady, len(ups))
	var wg sync.WaitGroup
	for i, u := range ups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := WorkerReady{ID: u.ref.ID}
			err := u.hop.do(ctx, http.MethodGet, "/readyz", "", nil, 0, func(rp *reply) error {
				var body serve.ReadyResponse
				json.NewDecoder(rp.body).Decode(&body)
				st.Ready = rp.status == http.StatusOK
				st.Reasons = body.Reasons
				return nil
			})
			if err != nil {
				st.Reasons = append(st.Reasons, err.Error())
			}
			out[i] = st
		}()
	}
	wg.Wait()
	return out
}

// handleReadyz reports the front ready only when EVERY ring worker is
// ready: a partially-ready cluster would serve some sessions and 502
// others depending on where they hash, which is worse than failing fast at
// the rollout gate.
func (f *Front) handleReadyz(w http.ResponseWriter, r *http.Request) {
	per := f.probeReady(r.Context())
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
	if f.coord == nil {
		clusterError(w, http.StatusNotFound, "front has no coordinator")
		return
	}
	var bs BudgetStatus
	if err := getJSON(r.Context(), f.coord, "/v1/cluster/budget", &bs); err != nil {
		clusterError(w, http.StatusBadGateway, "coordinator: %v", err)
		return
	}
	writeJSON(w, bs)
}
