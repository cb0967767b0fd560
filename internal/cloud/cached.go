package cloud

import (
	"sync"

	"eventhit/internal/cicache"
	"eventhit/internal/video"
)

// CachedBackend interposes a content-addressed result cache (internal/
// cicache) in front of any Backend. A hit returns the stored verdict with
// ZERO billing and ZERO simulated latency — the whole point of the dedup
// layer — while a miss delegates to the inner backend and inserts the
// fresh verdict. Callers that can sign their requests by content (the
// pipeline's covariate windows) use the KeyedDetector surface; the plain
// Backend surface falls back to exact (event type, absolute window) dedup,
// which is sound against a fixed backend because identical requests
// always return identical verdicts.

// KeyedDetector is the content-addressed surface of a caching backend: a
// DetectTimed whose cache identity is supplied by the caller. The
// resilient client routes through it when the backend offers it.
type KeyedDetector interface {
	DetectTimedKeyed(key cicache.Key, eventType int, win video.Interval) (Detection, float64, error)
}

// Savings is the realized benefit of the cache: what the hits did NOT cost
// (the cache's own Stats count the hits).
type Savings struct {
	// SavedFrames is the frames the hits would have billed; SavedUSD
	// prices them (single multiply, mirroring the billed-spend
	// arithmetic everywhere else in the repo).
	SavedFrames int64
	SavedUSD    float64
}

// CachedBackend implements Backend and KeyedDetector. Safe for concurrent
// use; under a serial call sequence every meter is deterministic.
type CachedBackend struct {
	inner       Backend
	cache       cicache.Remote
	perFrameUSD float64

	mu          sync.Mutex
	savedFrames int64
}

// NewCachedBackend wraps inner with cache — a local *cicache.Cache or any
// cicache.Remote (the cluster tier's coordinator-hosted cache). perFrameUSD
// values the savings meter; PerFrameUSDOf(inner) recovers it from
// pricing-aware backends.
func NewCachedBackend(inner Backend, cache cicache.Remote, perFrameUSD float64) *CachedBackend {
	return &CachedBackend{inner: inner, cache: cache, perFrameUSD: perFrameUSD}
}

// PerFrameUSDOf returns b's marginal per-frame price when the backend
// exposes CostOf (both *Service and *Faulty do), 0 otherwise.
func PerFrameUSDOf(b Backend) float64 {
	if p, ok := b.(interface{ CostOf(n int) float64 }); ok {
		return p.CostOf(1)
	}
	return 0
}

// Cache returns the underlying result cache (for stats and registration).
func (b *CachedBackend) Cache() cicache.Remote { return b.cache }

// Savings returns the realized savings meter.
func (b *CachedBackend) Savings() Savings {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Savings{
		SavedFrames: b.savedFrames,
		SavedUSD:    float64(b.savedFrames) * b.perFrameUSD,
	}
}

// DetectTimedKeyed implements KeyedDetector: serve key from the cache when
// fresh (zero cost, zero latency), otherwise delegate and insert. The
// cache's simulated "now" is the window's start frame — the TTL measures
// how far the stream has drifted since the verdict was stored.
func (b *CachedBackend) DetectTimedKeyed(key cicache.Key, eventType int, win video.Interval) (Detection, float64, error) {
	if v, ok := b.cache.Get(key, win.Start); ok {
		b.mu.Lock()
		b.savedFrames += int64(win.Len())
		b.mu.Unlock()
		return Detection{Found: v.Materialize(win)}, 0, nil
	}
	det, lat, err := b.inner.DetectTimed(eventType, win)
	if err != nil {
		return det, lat, err
	}
	b.cache.Put(key, cicache.Relativize(det.Found, win), win.Start)
	return det, lat, nil
}

// DetectTimed implements Backend with exact-match dedup: the key is the
// raw (event type, absolute window) request identity.
func (b *CachedBackend) DetectTimed(eventType int, win video.Interval) (Detection, float64, error) {
	return b.DetectTimedKeyed(cicache.ExactKey(eventType, win), eventType, win)
}

// Usage exposes the INNER backend's meters: only frames that actually
// reached the CI are billed, which is precisely what makes hits free.
func (b *CachedBackend) Usage() Usage { return b.inner.Usage() }

// PerFrameMS exposes the inner latency model.
func (b *CachedBackend) PerFrameMS() float64 { return b.inner.PerFrameMS() }

// CostOf prices n frames at the inner backend's rate.
func (b *CachedBackend) CostOf(n int) float64 { return float64(n) * b.perFrameUSD }
