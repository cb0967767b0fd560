package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"

	"eventhit/internal/serve"
)

// WorkerConfig parametrizes one cluster worker: a serve.Server plus the
// coordinator wiring that turns it from a standalone service into a fleet
// member.
type WorkerConfig struct {
	// ID names the worker in the routing ring.
	ID string
	// Coordinator is the coordinator's base URL; "" runs the worker
	// standalone (no lease, no remote cache).
	Coordinator string
	// Serve is the underlying server configuration. NewWorker fills in the
	// cluster hooks (RemoteCache, Fleet.Lease, ReadyProbe) when a
	// coordinator is set; fields the caller already set win.
	Serve serve.Config
}

// Worker is one running serve instance on the cluster fabric, listening on
// loopback.
type Worker struct {
	ID  string
	srv *serve.Server
	hs  *http.Server
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
		}
	}
	srv, err := serve.New(cfg.Serve)
	if err != nil {
		return nil, err
	}
	return &Worker{ID: cfg.ID, srv: srv}, nil
}

// ServeHTTP serves the worker surface without a listener (in-process
// tests).
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) { w.srv.ServeHTTP(rw, r) }

// Start listens on addr ("127.0.0.1:0" for an ephemeral port), serves in
// the background, and returns the worker's base URL. The second argument
// is ignored: the coordinator needs no registration (the front routes on
// its own ring), and WorkerConfig.Coordinator already wires the worker's
// calls to it.
func (w *Worker) Start(addr, _ string) (string, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("cluster: worker %s: %w", w.ID, err)
	}
	w.hs = &http.Server{Handler: w.srv}
	go w.hs.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// Close returns unspent lease headroom to the coordinator and stops the
// listener (if started).
func (w *Worker) Close() {
	w.srv.Close()
	if w.hs != nil {
		w.hs.Close()
	}
}
