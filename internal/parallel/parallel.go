// Package parallel provides the worker pool the experiment harness uses
// to fan simulation sweeps out across CPU cores: an order-preserving
// parallel map with first-error propagation. Simulations are
// independent and CPU-bound, so the default pool size is the machine's
// core count.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
)

// DefaultWorkers is the pool size used when workers <= 0.
func DefaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		return 1
	}
	return n
}

// Map applies fn to every item concurrently (at most workers at a time)
// and returns the results in input order. If any invocation returns an
// error, Map returns the error of the smallest-index failure; all
// started invocations still run to completion (simulations do not hold
// external resources, so cancellation is not worth its complexity).
func Map[T, R any](workers int, items []T, fn func(T) (R, error)) ([]R, error) {
	if fn == nil {
		return nil, fmt.Errorf("parallel: nil function")
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(items) {
		workers = len(items)
	}
	results := make([]R, len(items))
	errs := make([]error, len(items))
	if len(items) == 0 {
		return results, nil
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = fn(items[i])
			}
		}()
	}
	for i := range items {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("parallel: item %d: %w", i, err)
		}
	}
	return results, nil
}
