// Package sched holds the repository's two in-process concurrency
// primitives. Each is the one fan-out mechanism, a bounded parallel-for
// over independent items: a scenario portfolio's renders, a GA
// generation's fitness evaluations, a workload suite's simulations and
// an injection study's campaigns all run through it. Flight is the one
// in-process singleflight: the experiments Context's memoised studies
// and a stressmark search's per-candidate fitness memo deduplicate work
// shared between items through it.
//
// Cancellation is first-class: the context passed to Each is handed to
// every item, the first item error (or the caller's cancellation) stops
// new items from starting, and Each returns once in-flight items have
// drained. Because every result in this repository is memoised
// content-addressed (internal/simcache), a cancelled run leaves only
// complete, valid entries behind — re-running after a cancellation
// resumes from what finished.
//
// Faults are contained per item (DESIGN.md §11): a panicking item fails
// with a *PanicError carrying its index and stack — never the process.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a panic captured inside an Each item: the fan-out fails
// with the panic value and stack, the process keeps running.
type PanicError struct {
	// Index is the panicking item's index.
	Index int
	// Value is the recovered panic value.
	Value interface{}
	// Stack is the goroutine stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: item %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Each runs fn(ctx, i) for every i in [0, n) on at most workers
// goroutines (workers ≤ 0: GOMAXPROCS), handing indices out in
// ascending order. Each item is one panic-contained call: a panic fails
// it with a *PanicError naming its index. The first item error stops
// new items from starting and so does the caller's cancellation; Each
// returns once in-flight items drain, with ctx's error if the caller
// cancelled and otherwise the first item error. Items that write only
// their own index's slot of a shared slice need no further
// synchronisation.
func Each(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := runOnce(cctx, i, fn); err != nil {
					once.Do(func() { firstErr = err; cancel() })
					return
				}
				// Yield between items, as a goroutine per item would: a
				// worker looping on CPU-bound items otherwise keeps its
				// P until the next asynchronous preemption (~10ms), and
				// expired timers and network handlers — the daemon's
				// /v1/healthz — wait that long for a core.
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// runOnce is a single panic-contained item call: a panicking item fails
// with a *PanicError carrying its stack, and the worker goroutine (and
// the process) survives.
func runOnce(ctx context.Context, i int, fn func(context.Context, int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}
