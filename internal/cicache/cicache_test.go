package cicache

import (
	"math"
	"strings"
	"testing"

	"eventhit/internal/obs"
	"eventhit/internal/video"
)

// mustNew builds a cache of at most size entries in n shards.
func mustNew(t *testing.T, cfg Config, size, n int) *Cache {
	t.Helper()
	c, err := newCache(cfg, size, n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{TTLFrames: -1}).Validate(); err == nil {
		t.Fatal("negative TTLFrames validated")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSignWindowExactMatch: a key is exact-match only — a window one ulp
// away signs to another key — and every input perturbs it.
func TestSignWindowExactMatch(t *testing.T) {
	x := [][]float64{{1.00, 2.00}, {3.00, 4.00}}
	y := [][]float64{{1.00, 2.00}, {3.00, math.Nextafter(4, 5)}}
	ev := []int{0, 2}
	rel := video.Interval{Start: 10, End: 40}

	if SignWindow(x, ev, 0, rel, 0) == SignWindow(y, ev, 0, rel, 0) {
		t.Fatal("non-identical windows collapsed")
	}
	if SignWindow(x, ev, 0, rel, 0) != SignWindow(x, ev, 0, rel, 0) {
		t.Fatal("signature is not deterministic")
	}
	// Every non-content input perturbs the key.
	base := SignWindow(x, ev, 0, rel, 0)
	if SignWindow(x, ev, 1, rel, 0) == base {
		t.Fatal("event type ignored")
	}
	if SignWindow(x, []int{0, 3}, 0, rel, 0) == base {
		t.Fatal("event set ignored")
	}
	if SignWindow(x, ev, 0, video.Interval{Start: 11, End: 40}, 0) == base {
		t.Fatal("occurrence interval ignored")
	}
	if ExactKey(0, rel) == base {
		t.Fatal("domain tags did not separate SignWindow from ExactKey")
	}
}

// TestSignDecisionKeysPinned: a key finished from one decision's shared
// hash is the key the whole window was signed to before the split, bit for
// bit (the values were recorded then), since a key picks the cache shard
// and the entry it evicts. Two events of one decision share the prefix.
func TestSignDecisionKeysPinned(t *testing.T) {
	x := [][]float64{{0, 0.25, 1}, {0.5, 0.125, 0.75}}
	for _, c := range []struct {
		events    []int
		eventType int
		rel       video.Interval
		want      Key
	}{
		{[]int{0, 2}, 0, video.Interval{Start: 10, End: 40}, Key{0xf7067436a6ea2441, 0x2699ce7f97b46469}},
		{[]int{0, 2}, 2, video.Interval{Start: 3, End: 9}, Key{0x49bf17f7592c79a7, 0x41a8706ef87fd0c}},
	} {
		if got := SignDecision(x, c.events).Key(c.eventType, c.rel); got != c.want {
			t.Errorf("events %v type %d %v: key %#x, pinned %#x", c.events, c.eventType, c.rel, got, c.want)
		}
		if got := SignWindow(x, c.events, c.eventType, c.rel, 0); got != c.want {
			t.Errorf("SignWindow: key %#x, pinned %#x", got, c.want)
		}
	}
	d := SignDecision(x, []int{0, 2})
	if d.Key(0, video.Interval{Start: 10, End: 40}) != (Key{0xf7067436a6ea2441, 0x2699ce7f97b46469}) ||
		d.Key(2, video.Interval{Start: 3, End: 9}) != (Key{0x49bf17f7592c79a7, 0x41a8706ef87fd0c}) {
		t.Error("the second key of one decision differs from its own signature")
	}
}

func TestVerdictMaterializeReanchorsAndClips(t *testing.T) {
	src := video.Interval{Start: 100, End: 199}
	v := Relativize([]video.Interval{{Start: 110, End: 130}, {Start: 180, End: 220}}, src)
	// Same-length window elsewhere: shifted, second interval clipped at end.
	dst := video.Interval{Start: 500, End: 599}
	got := v.Materialize(dst)
	want := []video.Interval{{Start: 510, End: 530}, {Start: 580, End: 599}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("materialized %v, want %v", got, want)
	}
	// Shorter window: intervals beyond it vanish.
	short := video.Interval{Start: 500, End: 505}
	if got := v.Materialize(short); len(got) != 0 {
		t.Fatalf("out-of-window intervals survived clipping: %v", got)
	}
	if got := (Verdict{}).Materialize(dst); got != nil {
		t.Fatalf("empty verdict materialized %v", got)
	}
}

func TestCacheHitMissAndTTL(t *testing.T) {
	c := mustNew(t, Config{TTLFrames: 100}, 8, 1)
	k := ExactKey(0, video.Interval{Start: 0, End: 9})
	v := Verdict{Rel: []video.Interval{{Start: 1, End: 3}}}
	if _, ok := c.Get(k, 0); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, v, 50)
	if got, ok := c.Get(k, 100); !ok || len(got.Rel) != 1 {
		t.Fatalf("fresh entry missed: %v %v", got, ok)
	}
	// Earlier "now" than the insert frame is fresh, not negative-expired.
	if _, ok := c.Get(k, 0); !ok {
		t.Fatal("entry expired at an earlier simulated frame")
	}
	if _, ok := c.Get(k, 151); ok {
		t.Fatal("entry served past its TTL")
	}
	st := c.Stats()
	if st.Expirations != 1 || st.Entries != 0 {
		t.Fatalf("expiry not recorded: %+v", st)
	}
	if st.Hits != 2 || st.Misses != 2 || st.Lookups != 4 {
		t.Fatalf("meters wrong: %+v", st)
	}
	if r := st.HitRatio(); r != 0.5 {
		t.Fatalf("hit ratio %v", r)
	}
}

func TestCacheLRUEvictionDeterministic(t *testing.T) {
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = ExactKey(i, video.Interval{Start: 0, End: 9})
	}
	run := func() []bool {
		c := mustNew(t, Config{}, 3, 1)
		for _, k := range keys[:3] {
			c.Put(k, Verdict{}, 0)
		}
		c.Get(keys[0], 0) // refresh 0; 1 becomes LRU
		c.Put(keys[3], Verdict{}, 0)
		live := make([]bool, len(keys))
		for i, k := range keys {
			_, live[i] = c.Get(k, 0)
		}
		return live
	}
	live := run()
	if !live[0] || live[1] || !live[2] || !live[3] {
		t.Fatalf("eviction order wrong: %v (want LRU key 1 gone)", live)
	}
	for i := 0; i < 3; i++ {
		again := run()
		for j := range live {
			if live[j] != again[j] {
				t.Fatalf("eviction not deterministic: %v vs %v", live, again)
			}
		}
	}
}

func TestCacheShardingCoversAllShards(t *testing.T) {
	c := mustNew(t, Config{}, 1024, 8)
	for i := 0; i < 64; i++ {
		c.Put(ExactKey(i, video.Interval{Start: i, End: i + 9}), Verdict{}, 0)
	}
	if st := c.Stats(); st.Entries != 64 || st.Inserts != 64 {
		t.Fatalf("stats after 64 distinct puts: %+v", st)
	}
	occupied := 0
	for _, sh := range c.shards {
		if sh.lru.Len() > 0 {
			occupied++
		}
	}
	if occupied < 2 {
		t.Fatalf("64 keys landed on %d of %d shards", occupied, len(c.shards))
	}
}

func TestCacheRegisterExposition(t *testing.T) {
	reg := obs.NewRegistry()
	c := mustNew(t, Config{}, 8, 1)
	RegisterStats(reg, nil, c.Stats)
	k := ExactKey(0, video.Interval{Start: 0, End: 9})
	c.Put(k, Verdict{}, 0)
	c.Get(k, 0)
	c.Get(ExactKey(1, video.Interval{Start: 0, End: 9}), 0)
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"eventhit_cicache_hits_total 1",
		"eventhit_cicache_misses_total 1",
		"eventhit_cicache_entries 1",
		"eventhit_cicache_hit_ratio 0.5",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestCacheContainsIsFree: Contains answers "would Get hit" without being a
// lookup — no meter movement, no recency bump, and TTL respected.
func TestCacheContainsIsFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TTLFrames = 100
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Hi: 1, Lo: 2}
	if c.Contains(k, 0) {
		t.Fatal("empty cache contains a key")
	}
	c.Put(k, Verdict{}, 0)
	if !c.Contains(k, 50) {
		t.Fatal("fresh entry not contained")
	}
	if c.Contains(k, 101) {
		t.Fatal("expired entry contained")
	}
	st := c.Stats()
	if st.Lookups != 0 || st.Hits != 0 || st.Misses != 0 || st.Expirations != 0 {
		t.Fatalf("Contains moved the meters: %+v", st)
	}
	// The expired entry is still swept by a real Get, not by Contains.
	if st.Entries != 1 {
		t.Fatalf("Contains evicted: %d entries", st.Entries)
	}
}
