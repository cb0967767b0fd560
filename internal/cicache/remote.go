package cicache

import "eventhit/internal/obs"

// Remote is the cache surface a relay interposer needs, abstracted from
// where the entries live. *Cache implements it in-process; the cluster
// tier implements it over HTTP against a coordinator-hosted cache, so
// cross-stream dedup still fires when twin cameras land on different
// workers. Stats is the whole cache's meters for a local cache; a remote
// handle reports only the lookups made through it, so handles on one
// hosted cache add up instead of each repeating its totals.
type Remote interface {
	Get(k Key, nowFrame int) (Verdict, bool)
	Put(k Key, v Verdict, nowFrame int)
	Contains(k Key, nowFrame int) bool
	Stats() Stats
}

var _ Remote = (*Cache)(nil)

// RegisterStats exposes any Stats source on reg with the standard cicache
// family names — the same series (*Cache).Register emits, so a dashboard
// cannot tell a local cache from a remote one.
func RegisterStats(reg *obs.Registry, labels obs.Labels, stats func() Stats) {
	get := func(f func(Stats) float64) func() float64 {
		return func() float64 { return f(stats()) }
	}
	reg.CounterFunc("eventhit_cicache_hits_total", "CI relays answered from the result cache",
		labels, get(func(s Stats) float64 { return float64(s.Hits) }))
	reg.CounterFunc("eventhit_cicache_misses_total", "cache lookups that fell through to the CI",
		labels, get(func(s Stats) float64 { return float64(s.Misses) }))
	reg.CounterFunc("eventhit_cicache_evictions_total", "entries evicted by the LRU bound",
		labels, get(func(s Stats) float64 { return float64(s.Evictions) }))
	reg.CounterFunc("eventhit_cicache_expirations_total", "entries expired by the frame TTL",
		labels, get(func(s Stats) float64 { return float64(s.Expirations) }))
	reg.CounterFunc("eventhit_cicache_inserts_total", "verdicts admitted to the cache",
		labels, get(func(s Stats) float64 { return float64(s.Inserts) }))
	reg.GaugeFunc("eventhit_cicache_entries", "live cache entries",
		labels, get(func(s Stats) float64 { return float64(s.Entries) }))
	reg.GaugeFunc("eventhit_cicache_hit_ratio", "hits / lookups since start",
		labels, get(func(s Stats) float64 { return s.HitRatio() }))
}
