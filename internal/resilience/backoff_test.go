package resilience

import (
	"math"
	"testing"
)

// TestBackoffExactSchedule pins the un-jittered schedule: the default
// base/cap/multiplier must produce exactly this doubling sequence, capped.
func TestBackoffExactSchedule(t *testing.T) {
	b := defaultBackoff()
	b.jitterFrac = 0
	want := []float64{50, 100, 200, 400, 800, 1600, 2000, 2000}
	for i, w := range want {
		got := b.waitMS(99, 7, int64(i+1))
		if got != w {
			t.Fatalf("attempt %d: wait %v, want %v", i+1, got, w)
		}
	}
}

// TestBackoffJitterDeterministic: the jittered schedule is a pure function
// of (seed, request, attempt) — recomputing it yields identical values, and
// it stays inside the advertised envelope around the un-jittered wait.
func TestBackoffJitterDeterministic(t *testing.T) {
	b := defaultBackoff()
	plain := defaultBackoff()
	plain.jitterFrac = 0
	for req := int64(0); req < 20; req++ {
		for a := int64(1); a <= 6; a++ {
			w1 := b.waitMS(5, req, a)
			w2 := b.waitMS(5, req, a)
			if w1 != w2 {
				t.Fatalf("req %d attempt %d: %v != %v", req, a, w1, w2)
			}
			base := plain.waitMS(5, req, a)
			if math.Abs(w1-base) > b.jitterFrac*base {
				t.Fatalf("req %d attempt %d: jittered %v outside %.0f%% of %v", req, a, w1, b.jitterFrac*100, base)
			}
		}
	}
}

// TestBackoffJitterVaries: different (seed, request, attempt) keys draw
// different jitter — the schedule is not accidentally constant.
func TestBackoffJitterVaries(t *testing.T) {
	b := defaultBackoff()
	w0 := b.waitMS(1, 0, 1)
	varies := false
	for req := int64(1); req < 50; req++ {
		if b.waitMS(1, req, 1) != w0 {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("jitter identical across 50 requests")
	}
	if b.waitMS(1, 0, 1) == b.waitMS(2, 0, 1) && b.waitMS(1, 1, 1) == b.waitMS(2, 1, 1) {
		t.Fatal("jitter ignores the seed")
	}
}
