package harness

import (
	"runtime"
	"sync/atomic"

	"eventhit/internal/mathx"
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
// on scheduling. Cells complete in arbitrary order: experiments take their
// results from cells, which slots them by index.
func forEachCell(n int, fn func(i int) error) error {
	workers := Parallelism()
	if g := runtime.GOMAXPROCS(0); workers > g {
		workers = g
	}
	return mathx.ForEach(n, workers, fn)
}

// cells is the grid every experiment is written on: fn(i) computes cell i's
// result, and the results come back in index order whatever order the cells
// finished in. On failure it reports forEachCell's error and no results.
func cells[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := forEachCell(n, func(i int) error {
		var err error
		out[i], err = fn(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// trialCells is cells over a (value x trial) grid, value-major: out[v] holds
// value v's trial results in trial order, ready to be averaged.
func trialCells[T any](values, trials int, fn func(v, trial int) (T, error)) ([][]T, error) {
	flat, err := cells(values*trials, func(c int) (T, error) { return fn(c/trials, c%trials) })
	if err != nil {
		return nil, err
	}
	out := make([][]T, values)
	for v := range out {
		out[v] = flat[v*trials : (v+1)*trials]
	}
	return out, nil
}
