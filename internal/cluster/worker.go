package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"

	"eventhit/internal/conformal"
	"eventhit/internal/serve"
)

// WorkerConfig parametrizes one cluster worker: a serve.Server plus the
// coordinator wiring that turns it from a standalone service into a fleet
// member.
type WorkerConfig struct {
	// ID names the worker in the routing ring and the swap registry.
	ID string
	// Coordinator is the coordinator's base URL; "" runs the worker
	// standalone (no lease, no remote cache, no swap fan-out).
	Coordinator string
	// Serve is the underlying server configuration. NewWorker fills in the
	// cluster hooks (RemoteCache, Fleet.Lease, SwapPublisher, ReadyProbe)
	// when a coordinator is set; fields the caller already set win.
	Serve serve.Config
	// LeaseChunkFrames overrides the budget lease refill chunk (0 uses
	// fleet.DefaultLeaseChunkFrames). Only meaningful with Serve.Fleet set.
	LeaseChunkFrames int
}

// Worker is one running serve instance on the cluster fabric: the serve
// handler plus the worker-to-worker adopt endpoint, listening on loopback.
type Worker struct {
	ID  string
	srv *serve.Server
	mux *http.ServeMux
	ln  net.Listener
	hs  *http.Server
	hc  *http.Client
}

// coordLease implements fleet.BudgetLease over the coordinator's HTTP
// ledger. Acquire failing (coordinator down) grants 0, which the arbiter
// maps to DeferBudget — relays degrade gracefully, exactly like an
// exhausted cap, instead of erroring the predict path.
type coordLease struct {
	base string
	hc   *http.Client
}

func (l *coordLease) Acquire(frames int) int {
	body, err := json.Marshal(leaseRequest{Frames: frames})
	if err != nil {
		return 0
	}
	resp, err := l.hc.Post(l.base+"/v1/cluster/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var out leaseResponse
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&out) != nil {
		return 0
	}
	return out.Granted
}

func (l *coordLease) Return(frames int) {
	body, err := json.Marshal(leaseRequest{Frames: frames})
	if err != nil {
		return
	}
	if resp, err := l.hc.Post(l.base+"/v1/cluster/lease/return", "application/json", bytes.NewReader(body)); err == nil {
		resp.Body.Close()
	}
}

// NewWorker wires the cluster hooks into cfg.Serve and builds the server.
// The worker is not listening yet — call Start.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: worker needs an ID")
	}
	hc := &http.Client{Timeout: callTimeout}
	if cfg.Coordinator != "" {
		coord := cfg.Coordinator
		if cfg.Serve.ReadyProbe == nil {
			cfg.Serve.ReadyProbe = func() error {
				resp, err := hc.Get(coord + "/healthz")
				if err != nil {
					return fmt.Errorf("coordinator unreachable: %w", err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("coordinator unhealthy: HTTP %d", resp.StatusCode)
				}
				return nil
			}
		}
		// Shared result cache: only when the server relays (CI set), the
		// caller didn't wire a cache already, and the coordinator hosts one.
		if cfg.Serve.CI != nil && cfg.Serve.Cache == nil && cfg.Serve.RemoteCache == nil {
			if rc, err := DialRemoteCache(coord, hc); err == nil {
				cfg.Serve.RemoteCache = rc
			}
		}
		if cfg.Serve.Fleet != nil && cfg.Serve.Fleet.Lease == nil {
			cfg.Serve.Fleet.Lease = &coordLease{base: coord, hc: hc}
			if cfg.Serve.Fleet.LeaseChunkFrames == 0 {
				cfg.Serve.Fleet.LeaseChunkFrames = cfg.LeaseChunkFrames
			}
		}
		if cfg.Serve.SwapPublisher == nil {
			id := cfg.ID
			cfg.Serve.SwapPublisher = func(scene string, cls *conformal.Classifier) {
				var buf bytes.Buffer
				if err := cls.Save(&buf); err != nil {
					return
				}
				body, err := json.Marshal(swapEnvelope{Scene: scene, FromWorker: id, Classifier: buf.Bytes()})
				if err != nil {
					return
				}
				if resp, err := hc.Post(coord+"/v1/cluster/swap", "application/json", bytes.NewReader(body)); err == nil {
					resp.Body.Close()
				}
			}
		}
	}
	srv, err := serve.New(cfg.Serve)
	if err != nil {
		return nil, err
	}
	w := &Worker{ID: cfg.ID, srv: srv, hc: hc}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/adopt", w.handleAdopt)
	mux.Handle("/", srv)
	w.mux = mux
	return w, nil
}

// Server exposes the wrapped serve.Server (tests drain it, the cmd swaps
// models on it directly).
func (w *Worker) Server() *serve.Server { return w.srv }

// ServeHTTP serves the worker surface without a listener (in-process
// tests).
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) { w.mux.ServeHTTP(rw, r) }

// Start listens on addr ("127.0.0.1:0" for an ephemeral port), serves in
// the background, and registers with the coordinator when one is
// configured. Returns the worker's base URL.
func (w *Worker) Start(addr, coordinator string) (string, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("cluster: worker %s: %w", w.ID, err)
	}
	w.ln = ln
	w.hs = &http.Server{Handler: w.mux}
	go w.hs.Serve(ln)
	url := "http://" + ln.Addr().String()
	if coordinator != "" {
		body, err := json.Marshal(WorkerRef{ID: w.ID, URL: url})
		if err == nil {
			if resp, err := w.hc.Post(coordinator+"/v1/cluster/workers", "application/json", bytes.NewReader(body)); err == nil {
				resp.Body.Close()
			} else {
				w.hs.Close()
				return "", fmt.Errorf("cluster: worker %s registering: %w", w.ID, err)
			}
		}
	}
	return url, nil
}

// Close returns unspent lease headroom to the coordinator and stops the
// listener (if started).
func (w *Worker) Close() {
	w.srv.Close()
	if w.hs != nil {
		w.hs.Close()
	}
}

type adoptRequest struct {
	Scene      string `json:"scene"`
	Classifier []byte `json:"classifier"`
}

type adoptResponse struct {
	Adopted int `json:"adopted"`
}

// handleAdopt is the worker-to-worker half of a shared swap: the
// coordinator posts a sibling's classifier here and every session on THIS
// worker tagged with the scene adopts it (no exception — the publishing
// session lives on another worker).
func (w *Worker) handleAdopt(rw http.ResponseWriter, r *http.Request) {
	var req adoptRequest
	if err := decodeJSON(r, &req); err != nil {
		clusterError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	cls, err := conformal.LoadClassifier(bytes.NewReader(req.Classifier))
	if err != nil {
		clusterError(rw, http.StatusUnprocessableEntity, "classifier payload: %v", err)
		return
	}
	n, err := w.srv.AdoptClassifier(req.Scene, cls, "")
	if err != nil {
		clusterError(rw, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(rw, adoptResponse{Adopted: n})
}
