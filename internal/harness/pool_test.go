package harness

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestCells: every index runs, results come back in index order whatever
// order the cells finished in, and the lowest-index error wins — serially
// and on four workers.
func TestCells(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range []int{1, 4} {
		runtime.GOMAXPROCS(p)
		const n = 37
		var hits [n]atomic.Int64
		got, err := cells(n, func(i int) (int, error) {
			hits[i].Add(1)
			return i * i, nil
		})
		if err != nil || len(got) != n {
			t.Fatalf("P=%d: %d results, err %v", p, len(got), err)
		}
		for i, v := range got {
			if v != i*i || hits[i].Load() != 1 {
				t.Fatalf("P=%d: slot %d holds %d after %d runs", p, i, v, hits[i].Load())
			}
		}
		got, err = cells(10, func(i int) (int, error) {
			if i == 2 || i == 7 {
				return 0, fmt.Errorf("cell %d failed", i)
			}
			return i, nil
		})
		if got != nil || err == nil || err.Error() != "cell 2 failed" {
			t.Fatalf("P=%d: got %v, %v; want no results and the lowest-index cell error", p, got, err)
		}
		grid, err := trialCells(3, 4, func(v, trial int) ([2]int, error) { return [2]int{v, trial}, nil })
		if err != nil || len(grid) != 3 {
			t.Fatalf("P=%d: trialCells = %v, %v", p, grid, err)
		}
		for v, row := range grid {
			for trial, cell := range row {
				if len(row) != 4 || cell != [2]int{v, trial} {
					t.Fatalf("P=%d: grid[%d][%d] = %v of %d trials", p, v, trial, cell, len(row))
				}
			}
		}
	}
}

// TestPoolDeterminism is the harness-level parity check: the same
// experiment run serially and with concurrent cells must produce identical
// results, down to the last bit.
func TestPoolDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	runtime.GOMAXPROCS(1)
	t1, err := Table1(3, 5, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := Validity(mustTask("TA10"), Quick(), 2, 5, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := Fig7(tiny(), true, []int{10, 25}, 2, 5, io.Discard) // a (value x trial) grid
	if err != nil {
		t.Fatal(err)
	}

	runtime.GOMAXPROCS(4)
	t4, err := Table1(3, 5, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	v4, err := Validity(mustTask("TA10"), Quick(), 2, 5, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	f4, err := Fig7(tiny(), true, []int{10, 25}, 2, 5, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(t1, t4) {
		t.Error("Table1 differs between serial and parallel cells")
	}
	if !reflect.DeepEqual(v1, v4) {
		t.Error("Validity differs between serial and parallel cells")
	}
	if !reflect.DeepEqual(f1, f4) {
		t.Error("Fig7 differs between serial and parallel cells")
	}
}
