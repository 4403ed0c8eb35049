// Package par is the bounded fan-out primitive of the experiment
// engine. Every parallel surface in the library — experiment registry
// runs, design×workload evaluation grids, NoC load-latency sweeps —
// funnels through For, so parallelism is bounded the same way
// everywhere and results land by index, never by completion order.
// Determinism therefore only requires that each task seeds itself from
// its own index/config (which all callers do), not that tasks run in
// any particular order.
package par

import (
	"context"
	"runtime"
	"sync"
)

// DefaultWorkers is the standard pool size: one worker per available
// CPU, as set by GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Normalize clamps a caller-supplied worker count: 0 and negative
// values mean "serial" (1 worker); counts above n are pointless and are
// clamped to n.
func Normalize(workers, n int) int {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	return workers
}

// For runs fn(0..n-1) on a pool of at most workers goroutines and
// returns when every call has finished. With workers <= 1 it degrades
// to a plain serial loop on the calling goroutine — the serial and
// parallel paths execute the same code. fn must write its result into
// an index-addressed slot; For provides no ordering between tasks.
//
// A panic inside fn is captured and re-raised on the calling goroutine
// once the pool drains, so the panic-recovering boundaries upstream
// (experiments.Run, the public Simulate) behave identically in serial
// and parallel mode.
func For(n, workers int, fn func(i int)) {
	// A background context never cancels, so the error is always nil.
	_ = ForCtx(context.Background(), n, workers, fn)
}

// ForCtx is For with cooperative cancellation: no new task starts once
// ctx is done, tasks already running finish normally, and the context's
// error (if any) is returned after the pool drains. Cancellation is
// checked between tasks — a long-running fn that wants finer-grained
// cancellation must watch ctx itself. A nil ctx runs to completion.
//
// Because tasks write results into index-addressed slots, a canceled
// ForCtx leaves the slots of unstarted tasks untouched; callers must
// treat the result as invalid whenever ForCtx returns a non-nil error.
func ForCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	workers = Normalize(workers, n)
	var (
		panicOnce sync.Once
		panicked  any
	)
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicked = r })
			}
		}()
		fn(i)
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			call(i)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range next {
					call(i)
				}
			}()
		}
	dispatch:
		for i := 0; i < n; i++ {
			// With ctx already done and a worker parked, select would
			// pick between the two ready cases at random; check first so
			// nothing is handed out after cancellation.
			if ctx.Err() != nil {
				break
			}
			select {
			case next <- i:
			case <-ctx.Done():
				break dispatch
			}
		}
		close(next)
		wg.Wait()
	}
	if panicked != nil {
		panic(panicked)
	}
	return ctx.Err()
}
