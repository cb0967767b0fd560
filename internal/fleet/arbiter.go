package fleet

import (
	"fmt"
	"sync"
	"time"

	"eventhit/internal/obs"
)

// The Arbiter is the fleet policy's online form: where the scheduler
// replays pre-computed timelines on a simulated clock, the arbiter gates
// live relay traffic (the multi-session HTTP server) on the wall clock.
// It shares the budget semantics — per-session token buckets in billed
// frames plus a global spend cap — but decides synchronously: a relay is
// either admitted now or deferred now (the serving path cannot park a
// request, the HTTP response is waiting). Deferred relays reuse graceful
// degradation: the decision is still served, no frames reach the CI.

// BudgetLease is the coordinator-side source of global budget headroom for
// a lease-gated arbiter (cluster worker mode). Acquire asks for up to
// frames more billed-frame headroom and returns how many frames were
// actually granted — possibly 0 when the global cap is exhausted; Return
// hands unused headroom back (the drain path). Because both directions
// move integer frames and the coordinator prices its cap with the same
// single-multiply arithmetic as the local check, the sum of all workers'
// admitted spend can never overshoot the cap, no matter how concurrently
// they bill. Implementations must be safe for concurrent use.
type BudgetLease interface {
	Acquire(frames int) int
	Return(frames int)
}

// leaseChunkFrames is the refill chunk requested from a lease: large
// enough that a busy worker is not round-tripping to the coordinator per
// relay, small enough that idle workers do not park the whole budget. A
// relay larger than the chunk requests its exact shortfall instead.
const leaseChunkFrames = 1024

// ArbiterConfig parametrizes live admission control.
type ArbiterConfig struct {
	// PerFrameUSD prices admitted frames for the spend cap.
	PerFrameUSD float64
	// GlobalBudgetUSD caps total admitted spend; 0 means uncapped. Ignored
	// when Lease is set — the coordinator owns the cap then.
	GlobalBudgetUSD float64
	// SessionRatePerSec and SessionBurst configure each session's token
	// bucket in frames (wall-clock refill). Rate <= 0 disables per-session
	// metering; burst 0 holds one second of rate.
	SessionRatePerSec float64
	SessionBurst      float64
	// Lease, when non-nil, replaces the local GlobalBudgetUSD check with
	// coordinator-leased headroom: admission draws integer frames from a
	// locally held lease, refilled in leaseChunkFrames chunks through
	// Lease.Acquire. A relay that cannot be covered even after a refill is
	// deferred (DeferBudget). Acquire runs under the arbiter lock, so a
	// slow lease backend stalls this worker's admissions, never its
	// correctness.
	Lease BudgetLease `json:"-"`
}

// Validate rejects malformed configurations.
func (c ArbiterConfig) Validate() error {
	if !(c.PerFrameUSD >= 0 && c.GlobalBudgetUSD >= 0 && c.SessionRatePerSec >= 0 && c.SessionBurst >= 0) {
		return fmt.Errorf("fleet: negative arbiter knob in %+v", c)
	}
	return nil
}

// Verdict is an admission decision.
type Verdict int

const (
	// Admit: the relay may proceed; its frames are charged.
	Admit Verdict = iota
	// DeferRate: the session is over its metered frame rate.
	DeferRate
	// DeferBudget: the global spend cap would be exceeded.
	DeferBudget
)

func (v Verdict) String() string {
	switch v {
	case Admit:
		return "admit"
	case DeferRate:
		return "defer_rate"
	case DeferBudget:
		return "defer_budget"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// ArbiterStats is a snapshot of the admission counters. LeasedFrames, the
// total headroom the coordinator ever granted, is zero without a lease.
type ArbiterStats struct {
	Admitted        int64   `json:"admitted"`
	DeferredRate    int64   `json:"deferredRate"`
	DeferredBudget  int64   `json:"deferredBudget"`
	AdmittedFrames  int64   `json:"admittedFrames"`
	AdmittedUSD     float64 `json:"admittedUSD"`
	GlobalBudgetUSD float64 `json:"globalBudgetUSD"`
	Sessions        int     `json:"sessions"`
	LeasedFrames    int64   `json:"leasedFrames"`
}

// Arbiter is safe for concurrent use.
type Arbiter struct {
	cfg ArbiterConfig
	now func() float64 // wall ms; injectable for tests

	mu      sync.Mutex
	buckets map[string]*tokenBucket
	stats   ArbiterStats
	// leaseHeld is the granted-but-unspent lease headroom in frames
	// (lease-gated mode only).
	leaseHeld int64
}

// NewArbiter returns an arbiter on the wall clock.
func NewArbiter(cfg ArbiterConfig) (*Arbiter, error) {
	start := time.Now()
	return newArbiterAt(cfg, func() float64 { return float64(time.Since(start)) / float64(time.Millisecond) })
}

// newArbiterAt injects the clock (tests).
func newArbiterAt(cfg ArbiterConfig, now func() float64) (*Arbiter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Arbiter{cfg: cfg, now: now, buckets: make(map[string]*tokenBucket)}, nil
}

// Admit decides whether session may relay frames now. An Admit verdict
// charges the frames against both budgets; deferrals charge nothing.
func (a *Arbiter) Admit(session string, frames int) Verdict {
	if frames < 0 {
		frames = 0
	}
	nowMS := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.cfg.Lease != nil {
		// Lease-gated mode: the budget lives at the coordinator. Top the
		// local lease up by at least one chunk when it cannot cover this
		// relay; if even the refilled lease falls short, the cap is
		// exhausted cluster-wide and the relay defers. Headroom acquired
		// for a relay that then fails the rate bucket stays held — leased,
		// not spent — and covers the next admission.
		if int64(frames) > a.leaseHeld {
			chunk := leaseChunkFrames
			if need := int64(frames) - a.leaseHeld; int64(chunk) < need {
				chunk = int(need)
			}
			granted := int64(a.cfg.Lease.Acquire(chunk))
			a.leaseHeld += granted
			a.stats.LeasedFrames += granted
		}
		if int64(frames) > a.leaseHeld {
			a.stats.DeferredBudget++
			return DeferBudget
		}
	} else {
		// The cap is checked on the billed frame count with a single
		// multiply: accumulating per-relay costs drifts past the cap by
		// float error.
		wouldSpend := float64(a.stats.AdmittedFrames+int64(frames)) * a.cfg.PerFrameUSD
		if a.cfg.GlobalBudgetUSD > 0 && wouldSpend > a.cfg.GlobalBudgetUSD {
			a.stats.DeferredBudget++
			return DeferBudget
		}
	}
	b, ok := a.buckets[session]
	if !ok {
		b = newTokenBucket(a.cfg.SessionRatePerSec, a.cfg.SessionBurst, nowMS)
		a.buckets[session] = b
		a.stats.Sessions = len(a.buckets)
	}
	if !b.take(float64(frames), nowMS) {
		a.stats.DeferredRate++
		return DeferRate
	}
	if a.cfg.Lease != nil {
		a.leaseHeld -= int64(frames)
	}
	a.stats.Admitted++
	a.stats.AdmittedFrames += int64(frames)
	a.stats.AdmittedUSD = float64(a.stats.AdmittedFrames) * a.cfg.PerFrameUSD
	return Admit
}

// ReturnLease hands every locally held, unspent leased frame back to the
// coordinator — the drain/shutdown path, so a stopping worker's parked
// headroom becomes available to its siblings. Returns the frame count
// returned; a no-op (0) without a lease.
func (a *Arbiter) ReturnLease() int {
	a.mu.Lock()
	held := a.leaseHeld
	a.leaseHeld = 0
	a.mu.Unlock()
	if a.cfg.Lease == nil || held <= 0 {
		return 0
	}
	// The HTTP round trip happens outside the lock: a slow coordinator must
	// not stall concurrent admissions (which now correctly see zero held).
	a.cfg.Lease.Return(int(held))
	return int(held)
}

// Release forgets a session's token bucket (the session was deleted). The
// admission totals keep the session's history; only the live bucket — and
// the Sessions gauge — go. Returns whether the session was known.
func (a *Arbiter) Release(session string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.buckets[session]; !ok {
		return false
	}
	delete(a.buckets, session)
	a.stats.Sessions = len(a.buckets)
	return true
}

// Stats returns a snapshot of the admission counters.
func (a *Arbiter) Stats() ArbiterStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.stats
	s.GlobalBudgetUSD = a.cfg.GlobalBudgetUSD
	return s
}

// Register exposes the admission counters on reg as func-backed series.
func (a *Arbiter) Register(reg *obs.Registry, labels obs.Labels) {
	get := func(f func(ArbiterStats) float64) func() float64 {
		return func() float64 { return f(a.Stats()) }
	}
	reg.CounterFunc("eventhit_fleet_admitted_relays_total", "relays admitted to the shared CI",
		labels, get(func(s ArbiterStats) float64 { return float64(s.Admitted) }))
	reg.CounterFunc("eventhit_fleet_admission_deferred_total", "relays deferred by rate metering",
		labels, get(func(s ArbiterStats) float64 { return float64(s.DeferredRate) }))
	reg.CounterFunc("eventhit_fleet_admission_capped_total", "relays deferred by the global spend cap",
		labels, get(func(s ArbiterStats) float64 { return float64(s.DeferredBudget) }))
	reg.CounterFunc("eventhit_fleet_admitted_usd_total", "spend admitted through the arbiter",
		labels, get(func(s ArbiterStats) float64 { return s.AdmittedUSD }))
	reg.GaugeFunc("eventhit_fleet_sessions", "sessions known to the arbiter",
		labels, get(func(s ArbiterStats) float64 { return float64(s.Sessions) }))
}
