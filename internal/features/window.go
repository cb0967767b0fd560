package features

import (
	"fmt"
	"sync"
)

// Incremental covariate assembly. Because feature values are counter-based
// (keyed on stream seed, frame and channel), a frame's vector is identical
// no matter when it is extracted — so a per-stream ring buffer of per-frame
// rows makes advancing a collection window O(new frames) instead of
// re-extracting all M rows, bit-identical to recomputation by construction.
//
// Ring-buffer invariants:
//
//  1. Rows are immutable once written. Window assembly hands out row
//     VIEWS (slice headers), and callers (dataset.Record, the pipeline's
//     retained record history) keep them indefinitely, so a slot is never
//     overwritten in place: replacing a slot writes a fresh arena row and
//     drops the old reference for the garbage collector to reap when the
//     last retained record releases it.
//  2. A slot holds frame t iff frames[t%cap] == t, so lookups are exact
//     regardless of stride, rewinds or restarts; any frame outside the
//     ring's current residency is simply re-extracted (a miss, never an
//     error).
//  3. Rows are carved from arena chunks of arenaFrames rows each, so a
//     steady-state stream costs one bulk allocation per arenaFrames frames
//     instead of one per frame.

// arenaFrames is the number of rows carved per arena chunk.
const arenaFrames = 256

// WindowCache is the per-stream ring buffer of per-frame feature rows. Not
// safe for concurrent use; give each stream (each marshaller) its own.
type WindowCache struct {
	src    *Extractor
	dim    int
	slots  int
	rows   [][]float64
	frames []int
	arena  []float64

	hits, misses uint64
}

// NewWindowCache returns a cache sized for windows of length window frames
// (the ring keeps 2x that, so adjacent windows and small rewinds stay
// resident).
func NewWindowCache(src *Extractor, window int) *WindowCache {
	if window <= 0 {
		panic(fmt.Sprintf("features: window cache size %d must be positive", window))
	}
	c := &WindowCache{
		src:    src,
		dim:    src.Dim(),
		slots:  2 * window,
		rows:   make([][]float64, 2*window),
		frames: make([]int, 2*window),
	}
	for i := range c.frames {
		c.frames[i] = -1
	}
	return c
}

// Row returns frame t's feature vector, extracting it on a miss. t must be
// non-negative. The returned slice is immutable: it is never overwritten,
// so callers may retain it indefinitely.
func (c *WindowCache) Row(t int) []float64 {
	slot := t % c.slots
	if c.frames[slot] == t {
		c.hits++
		return c.rows[slot]
	}
	c.misses++
	if len(c.arena) < c.dim {
		c.arena = make([]float64, arenaFrames*c.dim)
	}
	buf := c.arena[:0:c.dim]
	c.arena = c.arena[c.dim:]
	row := c.src.FrameVector(t, buf)
	c.rows[slot] = row
	c.frames[slot] = t
	return row
}

// Window appends the m row views of the window ending at frame t
// (inclusive) to dst, which may be nil. With a recycled dst and a warm
// ring this allocates nothing. Upper-bound (stream length) checking is the
// caller's job; the cache itself only rejects windows reaching before
// frame 0.
func (c *WindowCache) Window(t, m int, dst [][]float64) ([][]float64, error) {
	if m <= 0 {
		return nil, fmt.Errorf("features: window size %d must be positive", m)
	}
	if t-m+1 < 0 {
		return nil, fmt.Errorf("features: window [%d,%d] starts before frame 0", t-m+1, t)
	}
	if dst == nil {
		dst = make([][]float64, 0, m)
	}
	for i := t - m + 1; i <= t; i++ {
		dst = append(dst, c.Row(i))
	}
	return dst, nil
}

// Stats returns cumulative (hits, misses) — extraction work saved vs done.
func (c *WindowCache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// CachedSource wraps an Extractor with a WindowCache so that successive
// Covariates calls share per-frame extraction work. It is a drop-in for the
// extractor: same window bounds errors, bit-identical matrices. Concurrent
// Covariates calls take turns on the ring.
type CachedSource struct {
	*Extractor
	mu     sync.Mutex
	cache  *WindowCache
	window int
}

// NewCachedSource wraps ex. It refuses a nil extractor.
func NewCachedSource(ex *Extractor) (*CachedSource, error) {
	if ex == nil {
		return nil, fmt.Errorf("features: nil extractor")
	}
	return &CachedSource{Extractor: ex}, nil
}

// Covariates is Extractor.Covariates through the ring. The returned matrix
// is freshly allocated per call (records retain it); only the row contents
// are shared, and rows are immutable (see the ring-buffer invariants).
func (s *CachedSource) Covariates(t, m int) ([][]float64, error) {
	if m <= 0 {
		return nil, fmt.Errorf("features: window size %d must be positive", m)
	}
	if n := s.Stream().N; t-m+1 < 0 || t >= n {
		return nil, fmt.Errorf("features: window [%d,%d] outside stream of %d frames", t-m+1, t, n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache == nil || s.window != m {
		// First use, or a window-size change: start a fresh ring.
		s.cache = NewWindowCache(s.Extractor, m)
		s.window = m
	}
	return s.cache.Window(t, m, make([][]float64, 0, m))
}

// Cache exposes the underlying ring (nil before the first Covariates
// call) for stats and tests; read it while no Covariates call runs.
func (s *CachedSource) Cache() *WindowCache {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache
}
