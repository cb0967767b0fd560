package harness

import (
	"runtime"

	"eventhit/internal/mathx"
)

// The experiment cell pool. Every figure and table in this package is a
// grid of independent cells — one (task, setting, trial) combination each,
// with its own RNG seed — whose results are merged in a fixed order. The
// pool runs those cells on GOMAXPROCS workers; because each cell is seeded
// by its grid position and results are slotted by cell index before
// merging, the numbers are identical at any GOMAXPROCS.

// cells is the grid every experiment is written on: fn(i) computes cell i's
// result, and the results come back in index order whatever order the cells
// finished in. On failure it reports the lowest-numbered failing cell's
// error (mathx.ForEach) and no results.
func cells[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := mathx.ForEach(n, runtime.GOMAXPROCS(0), func(i int) error {
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
