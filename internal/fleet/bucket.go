package fleet

// tokenBucket meters billed frames on a millisecond clock (simulated for
// the scheduler, wall for the arbiter). It refills continuously at rate
// tokens/ms up to burst; a take that cannot be covered fails without
// partial consumption. A nil bucket is unlimited. Not safe for concurrent
// use — callers serialize (the scheduler is single-goroutine, the arbiter
// holds its mutex).
type tokenBucket struct {
	ratePerMS float64
	burst     float64
	tokens    float64
	lastMS    float64
}

// newTokenBucket returns a full bucket, or nil (unlimited) when
// ratePerSec <= 0. A burst <= 0 holds one second of rate; any burst is at
// least one frame.
func newTokenBucket(ratePerSec, burst float64, nowMS float64) *tokenBucket {
	if ratePerSec <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = ratePerSec
	}
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{ratePerMS: ratePerSec / 1000, burst: burst, tokens: burst, lastMS: nowMS}
}

func (b *tokenBucket) refill(nowMS float64) {
	if nowMS <= b.lastMS {
		return
	}
	b.tokens += (nowMS - b.lastMS) * b.ratePerMS
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.lastMS = nowMS
}

// take withdraws n tokens at nowMS, reporting whether the bucket covered
// them. Failed takes consume nothing.
func (b *tokenBucket) take(n float64, nowMS float64) bool {
	if b == nil {
		return true
	}
	b.refill(nowMS)
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}
