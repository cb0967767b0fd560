// Package obs is the runtime observability layer: a stdlib-only, race-safe
// metrics registry with Prometheus text-format exposition. Where
// internal/trace is the offline audit trail (what was decided, replayable
// after the fact), obs is the live signal an operator scrapes from a
// running server's /metrics: how many requests and how fast, what the
// circuit breaker is doing, what the CI bill is. Offline runs (the
// pipeline, the fleet simulator, the experiments) record nothing here:
// their numbers live in their reports.
//
// Three series kinds, mirroring the Prometheus data model:
//
//   - Counter: a monotonically increasing float64 (requests served), or a
//     CounterFunc read at scrape time from a component's own cumulative
//     meters (frames billed, backoff milliseconds waited).
//   - GaugeFunc: a float64 that can go up and down, read at scrape time
//     (breaker state, live cache entries).
//   - Histogram: observations counted into fixed cumulative buckets plus a
//     running sum and count (request latencies).
//
// All primitives are updated with atomic operations only — no locks on the
// hot path — so instrumenting a concurrent HTTP handler is race-free by
// construction. Metrics observe values the system already computed; they
// never draw randomness and never feed back into a decision.
//
// Metrics are created through a Registry (get-or-create, keyed by name +
// label set) and exposed with WriteText / Handler. Every server owns a
// private registry, so concurrent test servers do not share counters.
package obs

import (
	"math"
	"sync/atomic"
)

// atomicFloat is a float64 updated via CAS on its bit pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(d float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing metric. The zero value is ready to
// use, but counters should be obtained from a Registry so they are
// exposed.
type Counter struct {
	v atomicFloat
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 { return c.v.load() }

// Histogram counts observations into fixed cumulative buckets. Bounds are
// upper bounds (Prometheus `le` semantics: an observation lands in the
// first bucket whose bound is >= the value); an implicit +Inf bucket
// catches everything above the last bound. NaN observations are dropped: a
// NaN input is a bug upstream and must not poison the sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	count  atomic.Uint64
	sum    atomicFloat
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// First bound >= v, by binary search; len(bounds) selects +Inf.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// SecondsBuckets is the default bucket layout for wall-clock request
// latencies in seconds.
func SecondsBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}
