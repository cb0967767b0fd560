package fleet

import (
	"math"
	"strings"
	"sync"
	"testing"

	"eventhit/internal/obs"
)

func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(1000, 50, 0) // 1 token/ms, burst 50
	if !b.take(50, 0) {
		t.Fatal("full bucket refused its burst")
	}
	if b.take(1, 0) {
		t.Fatal("empty bucket granted a token")
	}
	if !b.take(10, 10) {
		t.Fatal("bucket did not refill at rate")
	}
	if b.take(1, 10) {
		t.Fatal("refilled tokens double-spent")
	}
	// Refill saturates at burst.
	if !b.take(50, 1e6) {
		t.Fatal("bucket lost its burst capacity")
	}
	if b.take(1, 1e6) {
		t.Fatal("bucket exceeded burst after long idle")
	}
	if nb := newTokenBucket(0, 10, 0); nb != nil {
		t.Fatal("rate 0 must mean unlimited (nil bucket)")
	}
	var unlimited *tokenBucket
	if !unlimited.take(1e18, 0) {
		t.Fatal("nil bucket must grant everything")
	}
}

func TestArbiterAdmissionAndBudgets(t *testing.T) {
	now := 0.0
	a, err := newArbiterAt(ArbiterConfig{
		PerFrameUSD:       0.001,
		GlobalBudgetUSD:   0.05, // 50 frames total
		SessionRatePerSec: 1000, // 1 frame/ms
		SessionBurst:      20,
	}, func() float64 { return now })
	if err != nil {
		t.Fatal(err)
	}
	if v := a.Admit("s1", 20); v != Admit {
		t.Fatalf("burst admit = %v", v)
	}
	if v := a.Admit("s1", 5); v != DeferRate {
		t.Fatalf("over-rate admit = %v", v)
	}
	now = 10 // 10 tokens refilled
	if v := a.Admit("s1", 5); v != Admit {
		t.Fatalf("post-refill admit = %v", v)
	}
	// A second session has its own bucket.
	if v := a.Admit("s2", 20); v != Admit {
		t.Fatalf("fresh session admit = %v", v)
	}
	// 45 frames admitted; 6 more would breach the 50-frame global cap.
	if v := a.Admit("s2", 6); v != DeferBudget {
		t.Fatalf("cap admit = %v", v)
	}
	st := a.Stats()
	if st.Admitted != 3 || st.DeferredRate != 1 || st.DeferredBudget != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AdmittedFrames != 45 || st.AdmittedUSD != 0.045 || st.Sessions != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestArbiterConcurrentAdmission is the race-detector test for concurrent
// stream admission: many sessions admitting in parallel must conserve the
// counters and never breach the global cap.
func TestArbiterConcurrentAdmission(t *testing.T) {
	a, err := NewArbiter(ArbiterConfig{
		PerFrameUSD:     0.001,
		GlobalBudgetUSD: 0.2, // 200 frames
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := string(rune('a' + w))
			for i := 0; i < per; i++ {
				a.Admit(id, 1)
			}
		}()
	}
	wg.Wait()
	st := a.Stats()
	if st.Admitted+st.DeferredBudget+st.DeferredRate != workers*per {
		t.Fatalf("verdicts do not partition: %+v", st)
	}
	if st.AdmittedFrames != 200 || st.AdmittedUSD > 0.2 {
		t.Fatalf("cap breached or undershot: %+v", st)
	}
}

func TestArbiterRegister(t *testing.T) {
	a, err := NewArbiter(ArbiterConfig{PerFrameUSD: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	a.Admit("s1", 10)
	reg := obs.NewRegistry()
	a.Register(reg, nil)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"eventhit_fleet_admitted_relays_total 1",
		"eventhit_fleet_admitted_usd_total 0.01",
		"eventhit_fleet_sessions 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestArbiterConfigValidate(t *testing.T) {
	if _, err := NewArbiter(ArbiterConfig{PerFrameUSD: -1}); err == nil {
		t.Fatal("negative PerFrameUSD accepted")
	}
	// NaN passes every "< 0" test; a NaN cap would admit every relay.
	if _, err := NewArbiter(ArbiterConfig{PerFrameUSD: 0.001, GlobalBudgetUSD: math.NaN()}); err == nil {
		t.Fatal("NaN GlobalBudgetUSD accepted")
	}
}

// TestArbiterRateWithoutBurst: a session rate with no burst holds one
// second of rate, so a relay within it is admitted once the bucket has
// refilled, and one beyond it never is.
func TestArbiterRateWithoutBurst(t *testing.T) {
	now := 0.0
	a, err := newArbiterAt(ArbiterConfig{
		PerFrameUSD:       0.001,
		SessionRatePerSec: 600,
	}, func() float64 { return now })
	if err != nil {
		t.Fatal(err)
	}
	if v := a.Admit("s1", 100); v != Admit {
		t.Fatalf("100-frame relay on a fresh 600 frames/s session = %v", v)
	}
	now = 60_000 // a minute idle: the bucket is full again, and no fuller
	if v := a.Admit("s1", 600); v != Admit {
		t.Fatalf("one second of rate after a long idle = %v", v)
	}
	now = 120_000
	if v := a.Admit("s1", 601); v != DeferRate {
		t.Fatalf("relay over one second of rate = %v", v)
	}
}

// TestArbiterRelease: deleting a session frees its bucket and the Sessions
// gauge, keeps the admission history, and a recreated session starts with a
// fresh burst allowance.
func TestArbiterRelease(t *testing.T) {
	now := 0.0
	a, err := newArbiterAt(ArbiterConfig{
		PerFrameUSD:       0.001,
		SessionRatePerSec: 1, // negligible refill: only the burst matters
		SessionBurst:      20,
	}, func() float64 { return now })
	if err != nil {
		t.Fatal(err)
	}
	if v := a.Admit("s1", 20); v != Admit {
		t.Fatalf("burst admit = %v", v)
	}
	if v := a.Admit("s1", 20); v != DeferRate {
		t.Fatalf("drained bucket admitted: %v", v)
	}
	if !a.Release("s1") {
		t.Fatal("known session not released")
	}
	if a.Release("s1") || a.Release("never-seen") {
		t.Fatal("unknown session reported released")
	}
	st := a.Stats()
	if st.Sessions != 0 {
		t.Fatalf("sessions gauge = %d after release", st.Sessions)
	}
	if st.Admitted != 1 || st.AdmittedFrames != 20 {
		t.Fatalf("release erased admission history: %+v", st)
	}
	// Same id again: a brand-new bucket with full burst.
	if v := a.Admit("s1", 20); v != Admit {
		t.Fatalf("recreated session admit = %v", v)
	}
}
