package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"

	"eventhit/internal/cicache"
)

// RemoteCache implements cicache.Remote against a coordinator-hosted
// cache. Every operation fails OPEN: a coordinator hiccup turns a lookup
// into a miss and an insert into a no-op, so the worker keeps serving at
// the uncached cost instead of erroring the relay — the cache is an
// optimization, never a dependency.
type RemoteCache struct {
	base string
	hc   *http.Client
	cfg  cicache.Config
	// hits and misses count the lookups made through this handle.
	hits, misses atomic.Int64
}

// DialRemoteCache connects to the coordinator at base (e.g.
// "http://127.0.0.1:7070") and fetches the hosted cache's configuration —
// workers must sign windows with the COORDINATOR's epsilon, not their own,
// or twin streams on different workers would compute different keys and
// the shared dedup would silently never fire. httpClient may be nil (a
// client with the package's internal-call deadline).
func DialRemoteCache(base string, httpClient *http.Client) (*RemoteCache, error) {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: callTimeout}
	}
	rc := &RemoteCache{base: base, hc: httpClient}
	resp, err := rc.hc.Get(base + "/v1/cluster/cache/config")
	if err != nil {
		return nil, fmt.Errorf("cluster: dialing remote cache: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: remote cache config: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rc.cfg); err != nil {
		return nil, fmt.Errorf("cluster: remote cache config: %w", err)
	}
	return rc, nil
}

var _ cicache.Remote = (*RemoteCache)(nil)

// Config returns the coordinator cache's effective configuration, fetched
// once at dial time (it is immutable for the coordinator's lifetime).
func (r *RemoteCache) Config() cicache.Config { return r.cfg }

func (r *RemoteCache) post(path string, req, out interface{}) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := r.hc.Post(r.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("cluster: %s: HTTP %d", path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Get looks key up in the coordinator cache; errors are misses.
func (r *RemoteCache) Get(k cicache.Key, nowFrame int) (cicache.Verdict, bool) {
	var out cacheGetResponse
	if err := r.post("/v1/cluster/cache/get", cacheGetRequest{Key: k, NowFrame: nowFrame}, &out); err != nil || !out.Found {
		r.misses.Add(1)
		return cicache.Verdict{}, false
	}
	r.hits.Add(1)
	return out.Verdict, true
}

// Put inserts into the coordinator cache; errors are dropped.
func (r *RemoteCache) Put(k cicache.Key, v cicache.Verdict, nowFrame int) {
	r.post("/v1/cluster/cache/put", cachePutRequest{Key: k, Verdict: v, NowFrame: nowFrame}, nil)
}

// Contains is a non-mutating freshness probe; errors report false.
func (r *RemoteCache) Contains(k cicache.Key, nowFrame int) bool {
	var out cacheGetResponse
	if err := r.post("/v1/cluster/cache/contains", cacheGetRequest{Key: k, NowFrame: nowFrame}, &out); err != nil {
		return false
	}
	return out.Found
}

// Stats reports the lookups made through this handle — this worker's own
// hits and misses, not the shared cache's meters. Every worker holds a
// handle on the same hosted cache, so the coordinator's counters
// (GET /v1/cluster/cache/stats, its /metrics) are not additive across
// workers; these are, and reading them costs no round-trip. Inserts,
// evictions and entries are known only to the coordinator and stay zero.
func (r *RemoteCache) Stats() cicache.Stats {
	h, m := r.hits.Load(), r.misses.Load()
	return cicache.Stats{Lookups: h + m, Hits: h, Misses: m}
}
