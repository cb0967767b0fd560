// Package cicache is a content-addressed cache for CI verdicts: the dedup
// layer that turns repetitive video into unbilled hits. Video is
// overwhelmingly redundant — the observation behind Event Neural Networks
// and THIA's cost-aware planning — so a relay whose covariate window is
// identical to one the CI already judged can be answered from memory: zero
// billing, zero CI busy time.
//
// The key is a signature of the relay decision's inputs: the exact float
// bits of the covariate window the predictor saw, the task's event set, the
// event type being relayed, and the predicted occurrence interval relative
// to the anchor. A key matches exactly or not at all, so on a workload
// without exact repeats a cached run is byte-identical to an uncached one.
// The cached verdict stores occurrence intervals RELATIVE to the signed
// window, so a hit at a different absolute position re-anchors cleanly.
//
// The store is a sharded LRU with deterministic eviction (pure function of
// the Get/Put sequence) and per-entry TTL measured in simulated frames (video
// drifts; a verdict about frame 1000 says little about frame 500_000).
package cicache

import (
	"container/list"
	"fmt"
	"math"
	"sync"

	"eventhit/internal/video"
)

// Config parametrizes a cache.
type Config struct {
	// TTLFrames bounds an entry's useful life in simulated frames: a hit is
	// only served while now - insertedAt <= TTLFrames (both measured as the
	// signed window's start frame). 0 disables expiry.
	TTLFrames int
}

// A cache holds at most capacity entries across shards independently
// locked LRUs; the least recently used entry of the overflowing shard is
// evicted.
const (
	capacity = 4096
	shards   = 8
)

// DefaultConfig returns a cache with a 30k-frame TTL (~1000 s at 30 fps).
func DefaultConfig() Config {
	return Config{TTLFrames: 30_000}
}

// Validate rejects malformed configurations.
func (c Config) Validate() error {
	if c.TTLFrames < 0 {
		return fmt.Errorf("cicache: negative TTLFrames %d", c.TTLFrames)
	}
	return nil
}

// Key is a 128-bit content address.
type Key struct{ Hi, Lo uint64 }

// Two independent FNV-1a lanes with distinct offset bases, finalized with
// an avalanche mix. 128 bits keeps accidental collisions out of reach of
// any realistic working set.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	laneSplit = 0x9e3779b97f4a7c15 // second lane's offset perturbation
)

type hasher struct{ h1, h2 uint64 }

func newHasher(domain uint64) hasher {
	h := hasher{fnvOffset, fnvOffset ^ laneSplit}
	h.word(domain)
	return h
}

func (h *hasher) word(v uint64) {
	for i := 0; i < 64; i += 8 {
		b := uint64(byte(v >> i))
		h.h1 = (h.h1 ^ b) * fnvPrime
		h.h2 = (h.h2 ^ (b + 1)) * fnvPrime
	}
}

func mix(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	return v ^ v>>33
}

func (h hasher) key() Key { return Key{Hi: mix(h.h1), Lo: mix(h.h2)} }

// Domain tags keep signature families disjoint: a SignWindow key can never
// be confused with an ExactKey one.
const (
	domainWindow = 0x57494e444f573031 // "WINDOW01"
	domainExact  = 0x4558414354573031 // "EXACTW01"
)

// SignWindow keys one relay decision by content: the covariate window x
// (M frames x D channels) the predictor saw, the task's event set, the
// event type being relayed, and the predicted occurrence interval RELATIVE
// to the anchor. Two relays with bit-identical windows and identical
// predictions collapse onto one key regardless of their absolute stream
// position — that is what makes the verdict transferable. The last
// parameter is ignored (bench/ still passes it; ROADMAP item 1 drops it).
func SignWindow(x [][]float64, events []int, eventType int, rel video.Interval, _ float64) Key {
	return SignDecision(x, events).Key(eventType, rel)
}

// Decision is the part of a SignWindow key that every relay of one
// decision shares: the window and the event set, hashed once.
type Decision struct{ h hasher }

// SignDecision hashes what the relays of the decision on window x share.
func SignDecision(x [][]float64, events []int) Decision {
	h := newHasher(domainWindow)
	// The leading zero word holds every key to its pinned value
	// (TestSignDecisionKeysPinned): a key picks its shard and the entry
	// it evicts.
	h.word(0)
	h.word(uint64(len(x)))
	for _, row := range x {
		h.word(uint64(len(row)))
		for _, v := range row {
			h.word(math.Float64bits(v))
		}
	}
	h.word(uint64(len(events)))
	for _, e := range events {
		h.word(uint64(int64(e)))
	}
	return Decision{h}
}

// Key finishes the SignWindow key of one relayed event.
func (d Decision) Key(eventType int, rel video.Interval) Key {
	h := d.h
	h.word(uint64(int64(eventType)))
	h.word(uint64(int64(rel.Start)))
	h.word(uint64(int64(rel.End)))
	return h.key()
}

// ExactKey keys a raw (event type, absolute window) request — the
// exact-match dedup used when no feature signature is available
// (cloud.CachedBackend's unkeyed path).
func ExactKey(eventType int, win video.Interval) Key {
	h := newHasher(domainExact)
	h.word(uint64(int64(eventType)))
	h.word(uint64(int64(win.Start)))
	h.word(uint64(int64(win.End)))
	return h.key()
}

// Verdict is a cached CI answer: detected occurrence intervals relative to
// the signed window's start frame.
type Verdict struct {
	Rel []video.Interval
}

// Relativize converts a detection's absolute intervals into a Verdict
// anchored at win.Start.
func Relativize(found []video.Interval, win video.Interval) Verdict {
	if len(found) == 0 {
		return Verdict{}
	}
	rel := make([]video.Interval, len(found))
	for i, f := range found {
		rel[i] = video.Interval{Start: f.Start - win.Start, End: f.End - win.Start}
	}
	return Verdict{Rel: rel}
}

// Materialize re-anchors the verdict at win.Start and clips every interval
// to win — a hit window may differ in length from the window that produced
// the verdict, and the CI contract is that detections never exceed the
// requested range.
func (v Verdict) Materialize(win video.Interval) []video.Interval {
	var out []video.Interval
	for _, r := range v.Rel {
		abs := video.Interval{Start: win.Start + r.Start, End: win.Start + r.End}
		if ov, ok := abs.Intersect(win); ok {
			out = append(out, ov)
		}
	}
	return out
}

// Stats is a snapshot of the cache meters.
type Stats struct {
	Lookups     int64 `json:"lookups"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Inserts     int64 `json:"inserts"`
	Evictions   int64 `json:"evictions"`
	Expirations int64 `json:"expirations"`
	Entries     int   `json:"entries"`
}

// HitRatio returns Hits/Lookups (0 before any lookup).
func (s Stats) HitRatio() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

type entry struct {
	key  Key
	v    Verdict
	born int // frame at insert, for TTL
}

// shard is one independently locked LRU. Eviction order is a pure function
// of the Get/Put call sequence: list recency, no clocks, no randomness.
type shard struct {
	mu    sync.Mutex
	elems map[Key]*list.Element
	lru   *list.List // front = most recently used
	cap   int

	lookups, hits, misses, inserts int64
	evictions, expirations         int64
}

// Cache is a sharded, deterministically evicting, TTL-bounded LRU of CI
// verdicts. Safe for concurrent use; when called from a single goroutine
// (the fleet scheduler's serial phase B) every meter and eviction is
// deterministic.
type Cache struct {
	cfg    Config
	shards []*shard
}

// New builds a cache. cfg is validated.
func New(cfg Config) (*Cache, error) { return newCache(cfg, capacity, shards) }

// newCache builds a cache of at most size entries in n shards; this
// package's tests build small ones.
func newCache(cfg Config, size, n int) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	perShard := (size + n - 1) / n
	c := &Cache{cfg: cfg, shards: make([]*shard, n)}
	for i := range c.shards {
		c.shards[i] = &shard{
			elems: make(map[Key]*list.Element),
			lru:   list.New(),
			cap:   perShard,
		}
	}
	return c, nil
}

func (c *Cache) shardFor(k Key) *shard {
	return c.shards[k.Hi%uint64(len(c.shards))]
}

// Get looks k up at simulated frame nowFrame. An entry older than
// TTLFrames is expired (removed, counted) instead of served; a hit
// refreshes recency.
func (c *Cache) Get(k Key, nowFrame int) (Verdict, bool) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.lookups++
	el, ok := sh.elems[k]
	if !ok {
		sh.misses++
		return Verdict{}, false
	}
	e := el.Value.(*entry)
	if c.cfg.TTLFrames > 0 && nowFrame-e.born > c.cfg.TTLFrames {
		sh.lru.Remove(el)
		delete(sh.elems, k)
		sh.expirations++
		sh.misses++
		return Verdict{}, false
	}
	sh.lru.MoveToFront(el)
	sh.hits++
	return e.v, true
}

// Contains reports whether a Get(k, nowFrame) would hit, without being
// one: no recency bump, no meter movement, no expiry sweep. Admission
// control uses it to recognize that a relay will be served free before
// deciding whether it fits a budget.
func (c *Cache) Contains(k Key, nowFrame int) bool {
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.elems[k]
	if !ok {
		return false
	}
	e := el.Value.(*entry)
	return c.cfg.TTLFrames <= 0 || nowFrame-e.born <= c.cfg.TTLFrames
}

// Put caches (k, v) at simulated frame nowFrame; an existing entry is
// refreshed in place. Over-capacity shards evict their least recently used
// entry.
func (c *Cache) Put(k Key, v Verdict, nowFrame int) {
	sh := c.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.elems[k]; ok {
		e := el.Value.(*entry)
		e.v, e.born = v, nowFrame
		sh.lru.MoveToFront(el)
		return
	}
	sh.elems[k] = sh.lru.PushFront(&entry{key: k, v: v, born: nowFrame})
	sh.inserts++
	for sh.lru.Len() > sh.cap {
		back := sh.lru.Back()
		sh.lru.Remove(back)
		delete(sh.elems, back.Value.(*entry).key)
		sh.evictions++
	}
}

// Stats sums the shard meters.
func (c *Cache) Stats() Stats {
	var s Stats
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.Lookups += sh.lookups
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.Inserts += sh.inserts
		s.Evictions += sh.evictions
		s.Expirations += sh.expirations
		s.Entries += sh.lru.Len()
		sh.mu.Unlock()
	}
	return s
}
