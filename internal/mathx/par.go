package mathx

import (
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0), …, fn(n-1) on up to workers goroutines, the caller's
// among them, and returns the error of the lowest failing index, so the
// outcome is the same at any workers >= 1. Workers claim indices in turn
// and calls complete in any order: fn must store what it computes at its
// index. With workers <= 1 (or n <= 1) it is the serial loop, which stops
// at the first failure; with more, every index runs.
func ForEach(n, workers int, fn func(i int) error) error {
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
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
