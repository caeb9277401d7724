// Package fanout is the worker loop behind the daemon's querymany
// endpoint: the items of one batch run through Run.
package fanout

import (
	"sync"
	"sync/atomic"
)

// Run calls do(i) for every i in [0, n) on at most workers goroutines
// and returns once every call has. Items are handed out in index order
// as workers free up. A batch of one item, or a single worker, runs
// inline on the caller's goroutine.
func Run(n, workers int, do func(i int)) {
	if n <= 1 || workers <= 1 {
		for i := range n {
			do(i)
		}
		return
	}
	workers = min(workers, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(i)
			}
		}()
	}
	wg.Wait()
}
