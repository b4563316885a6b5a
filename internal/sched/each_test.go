package sched

// Tests for Each, the bounded parallel-for every flat fan-out in the
// repository runs through: panic containment, exactly-once coverage,
// the worker bound, stop-on-first-error and caller cancellation.

import (
	"context"
	"errors"
	"fmt"
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
			if pe.Key != "3" || pe.Value != "injected item panic" {
				t.Errorf("panic identity lost: key=%q value=%v", pe.Key, pe.Value)
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
