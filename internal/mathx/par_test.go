package mathx

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestForEach: every index runs exactly once at any worker count (none,
// one, fewer and more than the indices), and the error returned is the
// lowest failing index's.
func TestForEach(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 37} {
			hits := make([]atomic.Int64, n)
			if err := ForEach(n, workers, func(i int) error {
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
		err := ForEach(10, workers, func(i int) error {
			if i == 3 || i == 8 {
				return fmt.Errorf("index %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 3 failed" {
			t.Fatalf("workers=%d: got %v, want the lowest failing index's error", workers, err)
		}
	}
}
