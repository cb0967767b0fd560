package drift

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// loopOutcome is one horizon of a single-event stream as the caller hands
// it to Loop.Observe.
type loopOutcome struct {
	scores             []float64
	kept, known, truth []bool
}

var loopOutcomes = map[string]loopOutcome{
	// relayed, and the CI found the event: a covered positive
	"hit": {[]float64{0.8}, []bool{true}, []bool{true}, []bool{true}},
	// skipped, and an audit found the event: a missed positive
	"miss": {[]float64{0.2}, []bool{false}, []bool{true}, []bool{true}},
	// relayed, and the CI found nothing: a buffered negative
	"neg": {[]float64{0.1}, []bool{true}, []bool{true}, []bool{false}},
	// skipped without an audit: no label
	"none": {[]float64{0.5}, []bool{false}, []bool{false}, []bool{false}},
}

// newTestLoop returns a loop at cfg that alarms on the 5th miss of an
// all-hit window of 10 (and on the 5th outcome after a Reset), buffers 64
// outcomes and recalibrates after 6 fresh ones.
func newTestLoop(t *testing.T, cfg Config) *Loop {
	t.Helper()
	l, err := NewLoop(cfg, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l.mon, err = newMonitor(0.9, 10, monitorDelta); err != nil {
		t.Fatal(err)
	}
	if l.rec, err = NewRecalibrator(testBufferCap, 1); err != nil {
		t.Fatal(err)
	}
	l.minFresh = 6
	return l
}

const testBufferCap = 64

// TestLoop walks the adaptation state machine over a real monitor and
// Recalibrator: each case feeds outcomes ("rebase" calls Rebase) and checks
// the lifetime counters, the feed indices whose Observe cut a
// recalibration, and the fresh count left over.
func TestLoop(t *testing.T) {
	cases := []struct {
		name    string
		feed    []string
		want    Stats
		recalAt []int
		fresh   int
	}{
		{
			name: "a sustained shift is one episode and one recalibration",
			// The 5th miss (index 14) opens the episode; the 6th miss after it
			// (index 20) completes MinFresh.
			feed:    concat(rep("hit", 10), rep("miss", 11)),
			want:    Stats{Observations: 21, Episodes: 1, Audits: 11, Recalibrations: 1},
			recalAt: []int{20},
		},
		{
			name: "a transient violation closes the episode without recalibrating and resets fresh",
			// Five hits after the episode opens leave the window at 5/10 misses
			// (still alarming, fresh 5); the sixth brings fresh to MinFresh but
			// also drops the window to 4/10, so the episode closes instead.
			feed: concat(rep("hit", 10), rep("miss", 5), rep("hit", 10)),
			want: Stats{Observations: 25, Episodes: 1, Audits: 5},
		},
		{
			name: "MinFresh counts only buffered outcomes after the episode opens",
			// Pre-episode negatives, the opening miss and unlabelled horizons
			// do not count; neg, miss, neg, neg, miss, neg after the opening
			// (index 18) do, the sixth at index 26.
			feed: concat(rep("hit", 10), rep("neg", 4), rep("miss", 5),
				[]string{"none", "neg", "none", "miss", "neg", "neg", "miss", "neg"}),
			want:    Stats{Observations: 17, Episodes: 1, Audits: 7, Recalibrations: 1},
			recalAt: []int{26},
		},
		{
			name: "a deferred rebuild is retried by the next labelled outcome only",
			// Six post-episode negatives hold no positive: the rebuild defers
			// (index 20). Five unlabelled horizons retry nothing, the next
			// negative defers again, the next miss brings a positive.
			feed: concat(rep("hit", 10), rep("miss", 5), rep("neg", 6), rep("none", 5),
				[]string{"neg", "miss"}),
			want:    Stats{Observations: 16, Episodes: 1, Audits: 6, Recalibrations: 1, Deferred: 2},
			recalAt: []int{27},
		},
		{
			name: "Rebase ends the episode, empties the window and keeps lifetime counters",
			// After the rebase (index 15) the refilled window alarms on its 5th
			// miss (index 20): a second episode, recalibrated at index 26.
			feed:    concat(rep("hit", 10), rep("miss", 5), []string{"rebase"}, rep("miss", 11)),
			want:    Stats{Observations: 26, Episodes: 2, Audits: 16, Recalibrations: 1},
			recalAt: []int{26},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newTestLoop(t, Config{})
			var recalAt []int
			for i, f := range tc.feed {
				if f == "rebase" {
					l.Rebase()
					continue
				}
				o := loopOutcomes[f]
				if l.Observe(o.scores, o.kept, o.known, o.truth) != nil {
					recalAt = append(recalAt, i)
				}
			}
			if got := l.Stats(); got != tc.want {
				t.Errorf("stats %+v, want %+v", got, tc.want)
			}
			if !reflect.DeepEqual(recalAt, tc.recalAt) {
				t.Errorf("recalibrations at %v, want %v", recalAt, tc.recalAt)
			}
			if l.fresh != tc.fresh {
				t.Errorf("fresh = %d, want %d", l.fresh, tc.fresh)
			}
		})
	}
	// n skipped decisions at rate r are audited floor(n*r)±1 times.
	for _, r := range []float64{0, 0.1, 0.25, 1.0 / 3, 0.5, 1} {
		for _, n := range []int{1, 9, 100, 1001} {
			t.Run(fmt.Sprintf("audits r=%.3f n=%d", r, n), func(t *testing.T) {
				l := newTestLoop(t, Config{AuditRate: r})
				audits := 0
				for i := 0; i < n; i++ {
					if l.Audit() {
						audits++
					}
				}
				if want := math.Floor(float64(n) * r); math.Abs(float64(audits)-want) > 1 {
					t.Errorf("%d audits, want %v±1", audits, want)
				}
			})
		}
	}
}

func TestLoopValidation(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"audit rate": func(c *Config) { c.AuditRate = 1.5 },
		"audit NaN":  func(c *Config) { c.AuditRate = math.NaN() },
	} {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := NewLoop(cfg, 0.9, 1); err == nil {
			t.Errorf("%s: invalid config %+v accepted", name, cfg)
		}
	}
	if _, err := NewLoop(DefaultConfig(), 1, 1); err == nil {
		t.Error("target 1 accepted: the monitor needs a nominal miss budget")
	}
	if _, err := NewLoop(DefaultConfig(), 0.9, 1); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// TestLoopObserveAllocs: once the buffer has wrapped, a labelled Observe
// that cuts no recalibration allocates nothing.
func TestLoopObserveAllocs(t *testing.T) {
	l := newTestLoop(t, Config{})
	o := loopOutcomes["hit"]
	for i := 0; i <= testBufferCap; i++ {
		l.Observe(o.scores, o.kept, o.known, o.truth)
	}
	if allocs := testing.AllocsPerRun(100, func() { l.Observe(o.scores, o.kept, o.known, o.truth) }); allocs != 0 {
		t.Fatalf("Observe allocates %v times after warm-up, want 0", allocs)
	}
}
