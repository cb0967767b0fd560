package cloud

import (
	"fmt"
	"sync"

	"eventhit/internal/mathx"
	"eventhit/internal/video"
)

// The fault layer makes the CI misbehave the way a real per-frame-priced
// cloud service does in production — transient 5xx errors, latency spikes
// and hard outages — while keeping every behaviour
// reproducible bit-for-bit. Faults are a pure function of (plan, request
// index): the plan never keeps RNG state, it hashes the request index, so
// the i-th request sees the same fate no matter what happened before it.

// ErrOutage is returned for requests falling into a hard outage window.
var ErrOutage = fmt.Errorf("cloud: service outage")

// ReqWindow is a half-open request-index range [Start, End).
type ReqWindow struct {
	Start, End int64
}

// Contains reports whether request index i falls inside the window.
func (w ReqWindow) Contains(i int64) bool { return i >= w.Start && i < w.End }

// FaultPlan is a seeded, deterministic fault schedule for a CI. The zero
// value injects nothing. Every knob is evaluated per request index, so two
// services driven by the same plan fail identically.
type FaultPlan struct {
	// Seed keys the per-request hash draws; plans that differ only in Seed
	// produce independent fault sequences.
	Seed int64
	// TransientRate is the probability that a request fails with
	// ErrUnavailable (a retryable 5xx).
	TransientRate float64
	// SpikeRate is the probability that a request's latency is inflated;
	// SpikeMS scales the inflation: a spiked request gains an extra
	// SpikeMS * [0.5, 1.5) milliseconds, drawn deterministically.
	SpikeRate float64
	SpikeMS   float64
	// Outages are hard-failure request-index windows (ErrOutage).
	Outages []ReqWindow
	// FailLatencyMS is the simulated time a caller spends observing any
	// injected failure (connect + error round-trip).
	FailLatencyMS float64
}

// Validate rejects plans that cannot be a deterministic fault schedule:
// probabilities outside [0,1], negative latencies and
// malformed outage windows. The zero plan is valid (and inactive).
func (p FaultPlan) Validate() error {
	if p.TransientRate < 0 || p.TransientRate > 1 || p.TransientRate != p.TransientRate {
		return fmt.Errorf("cloud: TransientRate %v outside [0,1]", p.TransientRate)
	}
	if p.SpikeRate < 0 || p.SpikeRate > 1 || p.SpikeRate != p.SpikeRate {
		return fmt.Errorf("cloud: SpikeRate %v outside [0,1]", p.SpikeRate)
	}
	if p.SpikeMS < 0 || p.FailLatencyMS < 0 {
		return fmt.Errorf("cloud: negative fault latency (SpikeMS %v, FailLatencyMS %v)", p.SpikeMS, p.FailLatencyMS)
	}
	for i, w := range p.Outages {
		if w.Start < 0 || w.End <= w.Start {
			return fmt.Errorf("cloud: outage %d: need 0 <= Start < End, got [%d,%d)", i, w.Start, w.End)
		}
	}
	return nil
}

// Fault is the plan's verdict for one request.
type Fault struct {
	// Err, when non-nil, fails the request before any processing or
	// billing. It wraps one of ErrOutage, ErrUnavailable.
	Err error
	// ExtraMS is added to the request's simulated latency: the spike on a
	// successful request, or FailLatencyMS on an injected failure.
	ExtraMS float64
}

// Hash salts separating the independent per-request draws.
const (
	saltTransient = 0x7261_6e73 // "rans"
	saltSpike     = 0x7370_696b // "spik"
	saltSpikeMag  = 0x6d61_676e // "magn"
)

// At returns the deterministic fault verdict for request index i.
// Evaluation order: outage, transient error, latency spike —
// the first failing rule wins.
func (p FaultPlan) At(i int64) Fault {
	for _, w := range p.Outages {
		if w.Contains(i) {
			return Fault{Err: ErrOutage, ExtraMS: p.FailLatencyMS}
		}
	}
	if p.TransientRate > 0 && mathx.Hash01(uint64(p.Seed), uint64(i), saltTransient) < p.TransientRate {
		return Fault{Err: ErrUnavailable, ExtraMS: p.FailLatencyMS}
	}
	if p.SpikeRate > 0 && p.SpikeMS > 0 && mathx.Hash01(uint64(p.Seed), uint64(i), saltSpike) < p.SpikeRate {
		mag := 0.5 + mathx.Hash01(uint64(p.Seed), uint64(i), saltSpikeMag)
		return Fault{ExtraMS: p.SpikeMS * mag}
	}
	return Fault{}
}

// FaultStats counts what a Faulty wrapper actually injected.
type FaultStats struct {
	Requests   int64
	Transients int64
	Spikes     int64
	SpikeMS    float64 // total injected latency
}

// Faulty wraps a Service with a FaultPlan. It implements Backend; injected
// failures happen before the inner service is consulted, so they are never
// billed (matching real providers, which do not charge failed calls).
// Safe for concurrent use; concurrent callers are indexed in arrival order.
type Faulty struct {
	inner *Service
	plan  FaultPlan

	mu    sync.Mutex
	next  int64
	stats FaultStats
}

// Inject wraps s with plan. A zero (inactive) plan yields a wrapper whose
// observable behaviour is identical to the bare service.
func Inject(s *Service, plan FaultPlan) *Faulty {
	return &Faulty{inner: s, plan: plan}
}

// DetectTimed implements Backend. The request index used for the fault
// draw counts every call, failed or not.
func (f *Faulty) DetectTimed(eventType int, win video.Interval) (Detection, float64, error) {
	f.mu.Lock()
	i := f.next
	f.next++
	ft := f.plan.At(i)
	f.stats.Requests++
	switch {
	case ft.Err == nil && ft.ExtraMS > 0:
		f.stats.Spikes++
		f.stats.SpikeMS += ft.ExtraMS
	case ft.Err == ErrUnavailable:
		f.stats.Transients++
	}
	f.mu.Unlock()
	if ft.Err != nil {
		return Detection{}, ft.ExtraMS, fmt.Errorf("cloud: request %d: %w", i, ft.Err)
	}
	det, lat, err := f.inner.DetectTimed(eventType, win)
	return det, lat + ft.ExtraMS, err
}

// Usage returns the inner service's meters (injected failures are unbilled
// and therefore invisible here; see FaultStats for them).
func (f *Faulty) Usage() Usage { return f.inner.Usage() }

// PerFrameMS exposes the inner latency model.
func (f *Faulty) PerFrameMS() float64 { return f.inner.PerFrameMS() }

// CostOf prices n frames at the inner service's rate.
func (f *Faulty) CostOf(n int) float64 { return f.inner.CostOf(n) }

// FaultStats returns what has been injected so far.
func (f *Faulty) FaultStats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}
