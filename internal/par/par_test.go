package par

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestNormalize(t *testing.T) {
	cases := []struct {
		workers, n, want int
	}{
		{0, 10, 1},
		{-3, 10, 1},
		{1, 10, 1},
		{4, 10, 4},
		{10, 10, 10},
		{64, 10, 10}, // clamped to n
		{4, 0, 0},    // empty work: pool size is irrelevant
	}
	for _, c := range cases {
		if got := Normalize(c.workers, c.n); got != c.want {
			t.Errorf("Normalize(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if w := DefaultWorkers(); w < 1 {
		t.Fatalf("DefaultWorkers() = %d, want >= 1", w)
	}
}

// For must call fn exactly once per index at any worker count, and
// index-addressed writes must land where the caller put them.
func TestForRunsEveryIndexOnce(t *testing.T) {
	const n = 257
	for _, workers := range []int{0, 1, 2, 4, 64} {
		counts := make([]int32, n)
		out := make([]int, n)
		For(n, workers, func(i int) {
			atomic.AddInt32(&counts[i], 1)
			out[i] = i * i
		})
		for i := 0; i < n; i++ {
			if counts[i] != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, counts[i])
			}
			if out[i] != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, out[i], i*i)
			}
		}
	}
}

func TestForEmpty(t *testing.T) {
	ran := false
	For(0, 8, func(i int) { ran = true })
	if ran {
		t.Fatal("For(0, ...) invoked fn")
	}
}

// A panic inside fn must surface on the calling goroutine so upstream
// recover boundaries (experiments.Run, the public Simulate) behave the
// same in serial and parallel mode.
func TestForPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want boom", workers, r)
				}
			}()
			For(16, workers, func(i int) {
				if i == 7 {
					panic("boom")
				}
			})
		}()
	}
}

// Even when a task panics, the pool must finish (or at least start and
// account for) the remaining tasks before re-raising, never deadlock.
func TestForPanicDoesNotDeadlock(t *testing.T) {
	var ran int32
	func() {
		defer func() { recover() }()
		For(100, 4, func(i int) {
			atomic.AddInt32(&ran, 1)
			panic(i)
		})
	}()
	if got := atomic.LoadInt32(&ran); got != 100 {
		t.Fatalf("ran %d of 100 tasks after panic", got)
	}
}

// ForCtx with a pre-canceled context must not start any work in the
// parallel path and must report the context error.
func TestForCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran int32
		err := ForCtx(ctx, 100, workers, func(i int) { atomic.AddInt32(&ran, 1) })
		if err == nil {
			t.Fatalf("workers=%d: ForCtx returned nil on canceled context", workers)
		}
		// The serial path checks before each call; the parallel path
		// checks before each dispatch. Either way nothing should run.
		if got := atomic.LoadInt32(&ran); got != 0 {
			t.Fatalf("workers=%d: %d tasks ran on a pre-canceled context", workers, got)
		}
	}
}

// TestForCtxPreCanceledParallelNeverDispatches repeats the parallel
// pre-canceled case: with a worker parked on the dispatch channel, a
// bare select between sending and ctx.Done() picks the send about half
// the time, so a single iteration would be a coin flip.
func TestForCtxPreCanceledParallelNeverDispatches(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for rep := 0; rep < 2000; rep++ {
		var ran int32
		if err := ForCtx(ctx, 4, 4, func(int) { atomic.AddInt32(&ran, 1) }); err == nil {
			t.Fatal("ForCtx returned nil on canceled context")
		}
		if got := atomic.LoadInt32(&ran); got != 0 {
			t.Fatalf("rep %d: %d tasks ran on a pre-canceled context", rep, got)
		}
	}
}

// Canceling mid-flight must stop dispatching: well under n tasks run,
// in-flight tasks complete, and the context error is returned.
func TestForCtxCancelStopsDispatch(t *testing.T) {
	const n = 100000
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	err := ForCtx(ctx, n, 4, func(i int) {
		if atomic.AddInt32(&ran, 1) == 10 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("ForCtx returned nil after mid-flight cancel")
	}
	if got := atomic.LoadInt32(&ran); got == n {
		t.Fatal("cancellation did not stop dispatch: every task ran")
	}
}

// A nil context must behave like context.Background.
func TestForCtxNil(t *testing.T) {
	var ran int32
	if err := ForCtx(nil, 10, 2, func(i int) { atomic.AddInt32(&ran, 1) }); err != nil {
		t.Fatalf("ForCtx(nil, ...) = %v", err)
	}
	if ran != 10 {
		t.Fatalf("ran = %d, want 10", ran)
	}
}
