// Package pool runs independent jobs on a bounded worker pool and streams
// their results back in job order.
package pool

import "iter"

// Ordered runs job(i, worker) for every i in [0, n) on a pool of workers
// goroutines and yields each (result, error) in index order, as soon as it
// is available: the first result arrives while later jobs still run. The
// worker argument is the pool slot (in [0, workers)) that runs the job, for
// progress reporting. A semaphore keeps the pool full even when the
// in-order head job is the slow one, while a launch window of 4×workers
// jobs ahead of the yield cursor caps how many finished results can pile up
// waiting their turn. A job error is yielded and never aborts the remaining
// jobs. Breaking out of the iteration launches nothing further; in-flight
// jobs finish into their buffered slots and are collected by the GC.
// workers below 1 means 1.
func Ordered[T any](n, workers int, job func(i, worker int) (T, error)) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		type slot struct {
			v   T
			err error
		}
		workers := max(workers, 1)
		window := 4 * workers
		results := make([]chan slot, n)
		for i := range results {
			results[i] = make(chan slot, 1)
		}
		// The semaphore doubles as the worker-id pool: a job holds one id
		// for its whole run.
		sem := make(chan int, workers)
		for w := 0; w < workers; w++ {
			sem <- w
		}
		launch := func(i int) {
			go func() {
				w := <-sem
				defer func() { sem <- w }()
				v, err := job(i, w)
				results[i] <- slot{v, err}
			}()
		}
		next := 0
		for ; next < n && next < window; next++ {
			launch(next)
		}
		for i := 0; i < n; i++ {
			res := <-results[i]
			if next < n {
				launch(next)
				next++
			}
			if !yield(res.v, res.err) {
				return
			}
		}
	}
}
