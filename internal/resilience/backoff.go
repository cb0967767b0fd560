package resilience

import (
	"math"

	"eventhit/internal/mathx"
)

// The backoff schedule: 50 ms doubling to a 2 s cap with 20% jitter.
const (
	backoffBaseMS     = 50
	backoffMaxMS      = 2000
	backoffMultiplier = 2
	backoffJitterFrac = 0.2
)

// backoff is an exponential backoff schedule with seeded jitter. The wait
// before retry a of request r is
//
//	min(baseMS * multiplier^(a-1), maxMS) * (1 + jitterFrac*u)
//
// where u is a deterministic uniform draw in [-1, 1) keyed by (seed, r, a).
// Jitter is counter-based — a pure hash of where the retry sits, never of
// how the RNG was consumed before — so schedules are identical no matter
// how many other requests ran first. A Client holds the package constants;
// the fields exist so this package's tests can pin a jitter-free schedule.
type backoff struct {
	baseMS, maxMS, multiplier, jitterFrac float64
}

func defaultBackoff() backoff {
	return backoff{baseMS: backoffBaseMS, maxMS: backoffMaxMS, multiplier: backoffMultiplier, jitterFrac: backoffJitterFrac}
}

// Salt separating backoff draws from other hash users of the same seed.
const saltBackoff = 0x6261_636b // "back"

// waitMS returns the simulated wait in milliseconds before retry attempt
// (1-based: 1 after the first failure) of request. Deterministic in
// (seed, request, attempt).
func (b backoff) waitMS(seed, request, attempt int64) float64 {
	w := math.Min(b.baseMS*math.Pow(b.multiplier, float64(attempt-1)), b.maxMS)
	u := 2*mathx.Hash01(uint64(seed), uint64(request), uint64(attempt), saltBackoff) - 1
	return w * (1 + b.jitterFrac*u)
}
