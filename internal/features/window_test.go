package features

import (
	"reflect"
	"testing"
)

// freshWindow is the recompute-from-scratch reference the cache must match
// bit for bit.
func freshWindow(e *Extractor, t, m int) [][]float64 {
	out := make([][]float64, m)
	for i := 0; i < m; i++ {
		out[i] = e.FrameVector(t-m+1+i, nil)
	}
	return out
}

// TestWindowIdentitySeededRun slides a window over every frame of a seeded
// run — three detector-noise configs plus the drifting extractor — and
// deep-equals the cached window against fresh recomputation at every step.
func TestWindowIdentitySeededRun(t *testing.T) {
	s := testStream()
	cfgs := map[string]DetectorConfig{
		"clean":   {},
		"default": DefaultDetector(),
		"noisy":   {MissRate: 0.3, FPRate: 0.2, Jitter: 0.4, CueGain: 0.6},
	}
	const M, start, frames = 10, 9, 400
	for name, cfg := range cfgs {
		ex, err := NewExtractor(s, []int{0, 1}, cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		c := NewWindowCache(ex, M)
		var dst [][]float64
		for ft := start; ft < start+frames; ft++ {
			dst = dst[:0]
			got, err := c.Window(ft, M, dst)
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, ft, err)
			}
			dst = got
			if want := freshWindow(ex, ft, M); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: cached window at frame %d differs from recomputation", name, ft)
			}
		}
		hits, misses := c.Stats()
		// Sliding by one frame: the first window misses M times, every
		// later one exactly once.
		if wantMiss := uint64(M + frames - 1); misses != wantMiss {
			t.Errorf("%s: misses = %d, want %d (hits %d)", name, misses, wantMiss, hits)
		}
	}

	drift, err := NewDriftingExtractor(s, []int{0, 1}, DefaultDetector(),
		DetectorConfig{MissRate: 0.25, FPRate: 0.1, Jitter: 0.3}, start+frames/2, 11)
	if err != nil {
		t.Fatal(err)
	}
	c := NewWindowCache(drift, M)
	for ft := start; ft < start+frames; ft++ {
		got, err := c.Window(ft, M, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshWindow(drift, ft, M); !reflect.DeepEqual(got, want) {
			t.Fatalf("drifting: cached window at frame %d differs from recomputation", ft)
		}
	}
}

// TestWindowIdentityAcrossBoundariesAndStrides exercises the access
// patterns the pipeline actually produces — strides smaller than, equal to
// and larger than the window, plus rewinds past ring retention.
func TestWindowIdentityAcrossBoundariesAndStrides(t *testing.T) {
	s := testStream()
	ex, err := NewExtractor(s, []int{0}, DefaultDetector(), 3)
	if err != nil {
		t.Fatal(err)
	}
	const M = 25
	c := NewWindowCache(ex, M)
	anchors := []int{24, 25, 26, 49, 74, 75, 80, 580, 581, 1081, 60, 24}
	for _, ft := range anchors {
		got, err := c.Window(ft, M, nil)
		if err != nil {
			t.Fatalf("anchor %d: %v", ft, err)
		}
		if want := freshWindow(ex, ft, M); !reflect.DeepEqual(got, want) {
			t.Fatalf("cached window at anchor %d differs from recomputation", ft)
		}
	}
	if _, err := c.Window(M-2, M, nil); err == nil {
		t.Fatal("window reaching before frame 0 must error")
	}
	if _, err := c.Window(100, 0, nil); err == nil {
		t.Fatal("non-positive window must error")
	}
}

// TestWindowIdentityAfterRestart simulates a stream restart: Reset drops
// the ring mid-run and the next windows must still match recomputation,
// while rows handed out before the restart stay intact.
func TestWindowIdentityAfterRestart(t *testing.T) {
	s := testStream()
	ex, err := NewExtractor(s, []int{0, 2}, DefaultDetector(), 5)
	if err != nil {
		t.Fatal(err)
	}
	const M = 10
	c := NewWindowCache(ex, M)
	before, err := c.Window(50, M, nil)
	if err != nil {
		t.Fatal(err)
	}
	keep := make([]float64, len(before[0]))
	copy(keep, before[0])

	c.Reset()
	for _, ft := range []int{9, 50, 51, 200} {
		got, err := c.Window(ft, M, nil)
		if err != nil {
			t.Fatalf("after restart, anchor %d: %v", ft, err)
		}
		if want := freshWindow(ex, ft, M); !reflect.DeepEqual(got, want) {
			t.Fatalf("after restart, cached window at anchor %d differs", ft)
		}
	}
	if !reflect.DeepEqual(keep, before[0]) {
		t.Fatal("row handed out before Reset was mutated")
	}
}

// TestRowImmutableUnderEviction: a row view must survive its slot being
// recycled many times over (invariant 1 of the ring).
func TestRowImmutableUnderEviction(t *testing.T) {
	s := testStream()
	ex, err := NewExtractor(s, []int{0}, DefaultDetector(), 9)
	if err != nil {
		t.Fatal(err)
	}
	c := NewWindowCache(ex, 4)
	row := c.Row(100)
	snap := make([]float64, len(row))
	copy(snap, row)
	for ft := 0; ft < 5000; ft++ {
		c.Row(ft)
	}
	if !reflect.DeepEqual(snap, row) {
		t.Fatal("retained row mutated by later cache activity")
	}
}

// TestCachedSourceMatchesExtractor: the wrapped source must be a bitwise
// drop-in for the raw extractor, including its error cases — for a steady
// detector and for a drifting one whose switch frame falls inside a tested
// window (the source the camera-drift scenario walks).
func TestCachedSourceMatchesExtractor(t *testing.T) {
	s := testStream()
	ex, err := NewExtractor(s, []int{0, 1}, DefaultDetector(), 21)
	if err != nil {
		t.Fatal(err)
	}
	const switchFrame = 490 // inside the windows ending at 500 and 501
	drift, err := NewDriftingExtractor(s, []int{0, 1}, DefaultDetector(),
		DetectorConfig{MissRate: 0.25, FPRate: 0.1, Jitter: 0.3, CueGain: 0.4}, switchFrame, 21)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]*Extractor{"extractor": ex, "drifting": drift} {
		cs, err := NewCachedSource(src)
		if err != nil {
			t.Fatal(err)
		}
		if cs.Dim() != src.Dim() || cs.NumEvents() != src.NumEvents() || cs.Stream() != src.Stream() {
			t.Fatalf("%s: delegated accessors disagree", name)
		}
		for _, ft := range []int{24, 30, 500, 501, 40} {
			got, err := cs.Covariates(ft, 25)
			if err != nil {
				t.Fatalf("%s: anchor %d: %v", name, ft, err)
			}
			want, err := src.Covariates(ft, 25)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: cached covariates at anchor %d differ", name, ft)
			}
		}
		// Window-size change mid-stream starts a fresh ring, still exact.
		got, err := cs.Covariates(100, 10)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := src.Covariates(100, 10)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: covariates after window-size change differ", name)
		}
		// Same bounds errors as the raw source.
		if _, err := cs.Covariates(5, 25); err == nil {
			t.Fatalf("%s: window before frame 0 must error", name)
		}
		if _, err := cs.Covariates(s.N, 25); err == nil {
			t.Fatalf("%s: window past stream end must error", name)
		}
		if _, err := cs.Covariates(100, -1); err == nil {
			t.Fatalf("%s: negative window must error", name)
		}
	}
	// The drifting windows straddle a real switch: the steady extractor's
	// rows differ from the drifting one's at and after the switch frame.
	a, _ := ex.Covariates(500, 25)
	b, _ := drift.Covariates(500, 25)
	if i := switchFrame - (500 - 25 + 1); !reflect.DeepEqual(a[:i], b[:i]) || reflect.DeepEqual(a[i:], b[i:]) {
		t.Fatal("window ending at 500 does not straddle the detector switch")
	}
}

// TestNewCachedSourceRejectsNilExtractor: there is nothing to cache
// without an extractor.
func TestNewCachedSourceRejectsNilExtractor(t *testing.T) {
	if _, err := NewCachedSource(nil); err == nil {
		t.Fatal("expected error for a nil extractor")
	}
}

// TestWindowAssemblyAllocs pins warm window assembly at zero allocations
// per call.
func TestWindowAssemblyAllocs(t *testing.T) {
	s := testStream()
	ex, err := NewExtractor(s, []int{0}, DefaultDetector(), 2)
	if err != nil {
		t.Fatal(err)
	}
	const M = 25
	c := NewWindowCache(ex, M)
	dst := make([][]float64, 0, M)
	ft := M - 1
	if _, err := c.Window(ft, M, dst); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := c.Window(ft, M, dst[:0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm Window allocates %.1f per call, want 0", n)
	}
}
