package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The experiment cell pool. Every figure and table in this package is a
// grid of independent cells — one (task, setting, trial) combination each,
// with its own RNG seed — whose results are merged in a fixed order. The
// pool runs those cells on up to Parallelism workers; because each cell is
// seeded by its grid position and results are slotted by cell index before
// merging, the numbers are identical for every parallelism level.

var cellParallelism atomic.Int64

func init() { cellParallelism.Store(1) }

// SetParallelism sets how many experiment cells may run concurrently and
// returns the previous setting. Values below 1 are treated as 1. It must
// not be called while an experiment is running.
func SetParallelism(n int) int {
	if n < 1 {
		n = 1
	}
	return int(cellParallelism.Swap(int64(n)))
}

// Parallelism reports the current cell concurrency.
func Parallelism() int { return int(cellParallelism.Load()) }

// forEachCell runs fn(0..n-1), each call exactly once, on up to
// Parallelism() goroutines, clamped to GOMAXPROCS (cells are slotted by
// index, so goroutines beyond the core count change nothing but scheduling
// overhead). All cells run even if some fail; the returned error is the
// one from the lowest-numbered failing cell, so the outcome does not depend
// on scheduling. fn must write its result into an index-slotted structure
// — cells complete in arbitrary order.
func forEachCell(n int, fn func(i int) error) error {
	workers := Parallelism()
	if g := runtime.GOMAXPROCS(0); workers > g {
		workers = g
	}
	return ForEachCellN(n, workers, fn)
}

// ForEachCellN is forEachCell with an explicit worker count, for callers
// that carry their own parallelism knob instead of the package-level
// setting (the scenario runner's parallel stage groups). The same contract
// holds: every cell runs, results must be slotted by index, and the
// returned error is the lowest-numbered failing cell's — so outcomes are
// identical at any workers >= 1.
func ForEachCellN(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
