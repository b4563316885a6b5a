package sched

// Tests for Each, the bounded parallel-for every fan-out in the
// repository runs through: panic containment, exactly-once coverage,
// the worker bound (explicit and default), stop-on-first-error, caller
// cancellation and caller deadlines.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEachPanicBecomesPanicError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			err := Each(context.Background(), 10, workers, func(_ context.Context, i int) error {
				if i == 3 {
					panic("injected item panic")
				}
				return nil
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("want *PanicError, got %v", err)
			}
			if pe.Index != 3 || pe.Value != "injected item panic" {
				t.Errorf("panic identity lost: index=%d value=%v", pe.Index, pe.Value)
			}
			if !strings.Contains(err.Error(), "each_test.go") {
				t.Errorf("error carries no stack:\n%s", err)
			}
		})
	}
}

func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 500
		var runs [n]atomic.Int32
		if err := Each(context.Background(), n, workers, func(_ context.Context, i int) error {
			runs[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
	if err := Each(context.Background(), 0, 4, func(context.Context, int) error {
		t.Error("item ran with n=0")
		return nil
	}); err != nil {
		t.Errorf("empty Each: %v", err)
	}
}

func TestEachWorkerBound(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	err := Each(context.Background(), 30, workers, func(context.Context, int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("%d items ran at once, bound is %d", p, workers)
	}
}

func TestEachStopsAfterFirstError(t *testing.T) {
	boom := errors.New("boom")
	// One worker: the items after the failing one never start.
	var ran []int
	err := Each(context.Background(), 10, 1, func(_ context.Context, i int) error {
		ran = append(ran, i)
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if fmt.Sprint(ran) != "[0 1 2]" {
		t.Errorf("ran %v, want [0 1 2]", ran)
	}

	// Four workers: items 0–3 start together; item 0 fails, the other
	// three finish only once Each has cancelled their context, after
	// which no further item may start.
	const workers = 4
	var (
		mu      sync.Mutex
		started []int
		barrier sync.WaitGroup
	)
	barrier.Add(workers)
	err = Each(context.Background(), 100, workers, func(ctx context.Context, i int) error {
		mu.Lock()
		started = append(started, i)
		mu.Unlock()
		if i >= workers {
			return nil
		}
		barrier.Done()
		barrier.Wait()
		if i == 0 {
			return boom
		}
		<-ctx.Done()
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(started) != workers {
		t.Errorf("items %v started, want only the first %d", started, workers)
	}
}

func TestEachCallerCancellationWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	var barrier sync.WaitGroup
	barrier.Add(2)
	// Items 0 and 1 start together; item 0 then cancels the caller's
	// context and fails, item 1 waits for that cancellation. Nothing
	// else starts.
	err := Each(ctx, 50, 2, func(ctx context.Context, i int) error {
		ran.Add(1)
		barrier.Done()
		barrier.Wait()
		if i == 0 {
			cancel()
			return errors.New("failed while cancelled")
		}
		<-ctx.Done()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := ran.Load(); n != 2 {
		t.Errorf("%d items ran, want 2 (none after the caller cancelled)", n)
	}

	// An already-cancelled context runs nothing.
	err = Each(ctx, 5, 2, func(context.Context, int) error {
		t.Error("item ran under a cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// peakTracker records the most items running at once.
type peakTracker struct{ cur, peak atomic.Int32 }

func (p *peakTracker) enter() {
	c := p.cur.Add(1)
	for {
		old := p.peak.Load()
		if c <= old || p.peak.CompareAndSwap(old, c) {
			return
		}
	}
}

func (p *peakTracker) leave() { p.cur.Add(-1) }

// TestWorkerBound checks the default bound: workers ≤ 0 means
// GOMAXPROCS, and more workers than items never runs more than n.
func TestWorkerBound(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, tc := range []struct{ n, workers, bound int }{
		{n: 20, workers: 0, bound: 2},
		{n: 20, workers: -1, bound: 2},
		{n: 3, workers: 64, bound: 3},
	} {
		var p peakTracker
		if err := Each(context.Background(), tc.n, tc.workers, func(context.Context, int) error {
			p.enter()
			defer p.leave()
			time.Sleep(2 * time.Millisecond)
			return nil
		}); err != nil {
			t.Fatalf("n=%d workers=%d: %v", tc.n, tc.workers, err)
		}
		if got := p.peak.Load(); got > int32(tc.bound) {
			t.Errorf("n=%d workers=%d: %d items ran at once, bound is %d", tc.n, tc.workers, got, tc.bound)
		}
	}
}

// TestErrorCancelsRemaining checks that an item error cancels the
// context of the items still in flight, leaves the caller's context
// alone, and is what Each returns even though the cancelled items
// return the cancellation.
func TestErrorCancelsRemaining(t *testing.T) {
	boom := errors.New("boom")
	const workers = 3
	var (
		barrier   sync.WaitGroup
		cancelled atomic.Int32
	)
	barrier.Add(workers)
	ctx := context.Background()
	err := Each(ctx, workers, workers, func(ctx context.Context, i int) error {
		barrier.Done()
		barrier.Wait()
		if i == 1 {
			return boom
		}
		select {
		case <-ctx.Done():
			cancelled.Add(1)
			return ctx.Err()
		case <-time.After(10 * time.Second):
			return errors.New("in-flight item never saw the cancellation")
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if n := cancelled.Load(); n != workers-1 {
		t.Errorf("%d in-flight items saw the cancellation, want %d", n, workers-1)
	}
	if ctx.Err() != nil {
		t.Errorf("caller's context cancelled: %v", ctx.Err())
	}
}

// TestCancellationStopsNewJobs cancels the caller's context from
// outside while an item runs: that item sees it, no later item starts,
// and Each returns context.Canceled.
func TestCancellationStopsNewJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var ran atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- Each(ctx, 100, 1, func(ctx context.Context, i int) error {
			ran.Add(1)
			if i == 5 {
				close(started)
				<-ctx.Done()
				return ctx.Err()
			}
			return nil
		})
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Each did not return after the caller cancelled")
	}
	if n := ran.Load(); n != 6 {
		t.Errorf("%d items ran, want 6 (none after the cancellation)", n)
	}
}

// TestPanicFailsJobNotProcess checks that a panic fails only its own
// item: items already running finish normally, a non-string panic
// value survives, and the package stays usable afterwards.
func TestPanicFailsJobNotProcess(t *testing.T) {
	const workers = 3
	var (
		barrier  sync.WaitGroup
		finished atomic.Int32
	)
	barrier.Add(workers)
	cause := errors.New("injected error value")
	err := Each(context.Background(), workers, workers, func(_ context.Context, i int) error {
		barrier.Done()
		barrier.Wait()
		if i == 2 {
			panic(cause)
		}
		time.Sleep(5 * time.Millisecond)
		finished.Add(1)
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Index != 2 || pe.Value != cause {
		t.Errorf("panic identity lost: index=%d value=%v", pe.Index, pe.Value)
	}
	if n := finished.Load(); n != workers-1 {
		t.Errorf("%d in-flight items finished, want %d", n, workers-1)
	}
	var ran atomic.Int32
	if err := Each(context.Background(), 10, workers, func(context.Context, int) error {
		ran.Add(1)
		return nil
	}); err != nil || ran.Load() != 10 {
		t.Errorf("Each after a panic: err=%v, %d of 10 items ran", err, ran.Load())
	}
}

// TestJobDeadline runs Each under a caller deadline: the item blocked
// on its context is released when the deadline passes, no later item
// starts, and Each returns context.DeadlineExceeded.
func TestJobDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var ran atomic.Int32
	start := time.Now()
	err := Each(ctx, 50, 1, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 1 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(10 * time.Second):
				return errors.New("deadline never reached the item")
			}
		}
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if n := ran.Load(); n != 2 {
		t.Errorf("%d items ran, want 2 (none after the deadline)", n)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("Each took %v to honour a 20ms deadline", d)
	}
}
