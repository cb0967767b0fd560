package pipeline

import (
	"reflect"
	"testing"

	"eventhit/internal/cicache"
	"eventhit/internal/cloud"
	"eventhit/internal/strategy"
)

// TestCacheZeroEpsilonParity pins the cache's safety contract: enabling
// the exact-match cache over a stream whose jittered covariates never
// repeat exactly yields zero hits and a report deeply equal to the
// uncached run's.
func TestCacheZeroEpsilonParity(t *testing.T) {
	run := func(withCache bool) (Report, *Marshaller) {
		ex, ci, cfg := setup(t)
		costs := EventHitCosts(cfg.Window)
		if withCache {
			c := cicache.DefaultConfig()
			costs.Cache = &c
		}
		m, err := New(ex, strategy.Opt{}, ci, cfg, costs)
		if err != nil {
			t.Fatal(err)
		}
		rep, _, _, err := m.Run(0, 40000)
		if err != nil {
			t.Fatal(err)
		}
		return rep, m
	}
	off, _ := run(false)
	on, m := run(true)
	if sv := m.relay.Cached().Savings(); sv != (cloud.Savings{}) {
		t.Fatalf("exact-match cache hit on a non-repeating stream: %+v", sv)
	}
	if !reflect.DeepEqual(off, on) {
		t.Fatalf("cache at eps=0 changed the report:\noff = %+v\non  = %+v", off, on)
	}
}

// TestCacheRepeatRegionAllHits marshals the same region twice through one
// cached marshaller: the second pass's relays are answered entirely from
// the cache — no new billing, no new CI busy time, full savings (the
// relay's Savings delta over the pass).
func TestCacheRepeatRegionAllHits(t *testing.T) {
	ex, ci, cfg := setup(t)
	costs := EventHitCosts(cfg.Window)
	c := cicache.DefaultConfig()
	costs.Cache = &c
	m, err := New(ex, strategy.Opt{}, ci, cfg, costs)
	if err != nil {
		t.Fatal(err)
	}
	rep1, _, _, err := m.Run(0, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.CIFrames == 0 {
		t.Fatal("first pass relayed nothing; the test needs relays")
	}
	u1, sv1 := ci.Usage(), m.relay.Cached().Savings()
	rep2, _, _, err := m.Run(0, 40000)
	if err != nil {
		t.Fatal(err)
	}
	if u2 := ci.Usage(); u2 != u1 {
		t.Fatalf("second pass billed the CI: %+v vs %+v", u2, u1)
	}
	// A report is the run's own: a pass answered entirely from the cache
	// relayed, billed and waited for nothing.
	if rep2.CIFrames != 0 || rep2.SpentUSD != 0 || rep2.CIMS != 0 {
		t.Fatalf("second pass reports frames %d usd %v CI ms %v, want zeros",
			rep2.CIFrames, rep2.SpentUSD, rep2.CIMS)
	}
	sv2 := m.relay.Cached().Savings()
	if frames := sv2.SavedFrames - sv1.SavedFrames; frames != rep1.CIFrames {
		t.Fatalf("second pass saved %d frames, first pass billed %d", frames, rep1.CIFrames)
	}
	if usd := sv2.SavedUSD - sv1.SavedUSD; usd != rep1.SpentUSD {
		t.Fatalf("saved %v USD, first pass spent %v", usd, rep1.SpentUSD)
	}
	if rep2.Detections != rep1.Detections {
		t.Fatalf("cached pass found %d detections, first pass %d", rep2.Detections, rep1.Detections)
	}
}
