package sched

// Fault-containment tests (DESIGN.md §11): panic recovery, per-job
// deadlines, their retry with backoff, and the transient/permanent
// error classification.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avfstress/internal/scenario"
)

func TestPanicFailsJobNotProcess(t *testing.T) {
	var survivorRan atomic.Bool
	jobs := []scenario.Job{
		{Key: "boom", Run: func(context.Context) error { panic("injected panic") }},
		{Key: "survivor", Run: func(context.Context) error { survivorRan.Store(true); return nil }},
	}
	err := Run(context.Background(), jobs, Options{Workers: 2})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Key != "boom" || pe.Value != "injected panic" {
		t.Errorf("panic identity lost: key=%q value=%v", pe.Key, pe.Value)
	}
	if !strings.Contains(err.Error(), "injected panic") || !strings.Contains(err.Error(), "faults_test.go") {
		t.Errorf("error carries no stack:\n%s", err)
	}
	// Panics are permanent: no retries even under an aggressive policy.
	var attempts atomic.Int32
	err = Run(context.Background(), []scenario.Job{
		{Key: "boom", Run: func(context.Context) error { attempts.Add(1); panic("again") }},
	}, Options{Retry: RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}})
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("panicking job attempted %d times, want 1", got)
	}
}

func TestPanicDrainsDependents(t *testing.T) {
	// A dependent of a panicked job must still be released (and then
	// skip work under the cancelled context) so Run returns.
	var depRan atomic.Bool
	jobs := []scenario.Job{
		{Key: "a", Run: func(context.Context) error { panic("dead dependency") }},
		{Key: "b", Deps: []string{"a"}, Run: func(ctx context.Context) error {
			depRan.Store(true)
			return ctx.Err()
		}},
	}
	done := make(chan error, 1)
	go func() { done <- Run(context.Background(), jobs, Options{Workers: 2}) }()
	select {
	case err := <-done:
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("want *PanicError, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run hung after a panic")
	}
}

// slowUntil returns a job body whose first n attempts outlive their
// deadline (blocking until the job context expires) and whose later
// attempts succeed at once, counting attempts.
func slowUntil(n int32, attempts *atomic.Int32) func(context.Context) error {
	return func(ctx context.Context) error {
		if attempts.Add(1) <= n {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}
}

func TestTransientRetriesThenSucceeds(t *testing.T) {
	var attempts atomic.Int32
	var retries []int
	var mu sync.Mutex
	jobs := []scenario.Job{{Key: "slow", Run: slowUntil(2, &attempts)}}
	err := Run(context.Background(), jobs, Options{
		JobTimeout: 20 * time.Millisecond,
		Retry:      RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		OnRetry: func(key string, attempt int, err error, backoff time.Duration) {
			mu.Lock()
			retries = append(retries, attempt)
			mu.Unlock()
			if key != "slow" || !IsTransient(err) || backoff <= 0 {
				t.Errorf("OnRetry(%q, %d, %v, %v)", key, attempt, err, backoff)
			}
		},
	})
	if err != nil {
		t.Fatalf("deadline failures not healed: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts %d, want 3", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(retries) != 2 || retries[0] != 1 || retries[1] != 2 {
		t.Errorf("retry observations %v, want [1 2]", retries)
	}
}

func TestTransientExhaustsAttempts(t *testing.T) {
	var attempts atomic.Int32
	err := Run(context.Background(), []scenario.Job{
		{Key: "doomed", Run: slowUntil(100, &attempts)},
	}, Options{JobTimeout: 10 * time.Millisecond, Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}})
	var de *DeadlineError
	if !errors.As(err, &de) || de.Key != "doomed" {
		t.Fatalf("final error is not the job's deadline: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts %d, want 3", got)
	}
}

func TestPermanentErrorsAreNotRetried(t *testing.T) {
	var attempts atomic.Int32
	err := Run(context.Background(), []scenario.Job{
		{Key: "wrong", Run: func(context.Context) error { attempts.Add(1); return errors.New("bad spec") }},
	}, Options{Retry: RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}})
	if err == nil || attempts.Load() != 1 {
		t.Errorf("permanent error retried: attempts=%d err=%v", attempts.Load(), err)
	}
}

func TestJobDeadline(t *testing.T) {
	start := time.Now()
	err := Run(context.Background(), []scenario.Job{
		{Key: "stuck", Run: func(ctx context.Context) error {
			<-ctx.Done()
			return ctx.Err()
		}},
	}, Options{JobTimeout: 50 * time.Millisecond})
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("want *DeadlineError, got %v", err)
	}
	if de.Key != "stuck" || de.Timeout != 50*time.Millisecond {
		t.Errorf("deadline identity lost: %+v", de)
	}
	// The deadline error must not read as a run-level cancellation —
	// that distinction drives the service's failed-vs-canceled status.
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		t.Error("DeadlineError aliases a context cancellation")
	}
	if IsTransient(err) != true {
		t.Error("deadline should classify transient (retryable)")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("deadline took %v to fire", elapsed)
	}
}

func TestJobDeadlineRetries(t *testing.T) {
	// First attempt times out; the retry completes instantly.
	var attempts atomic.Int32
	err := Run(context.Background(), []scenario.Job{
		{Key: "slow-once", Run: func(ctx context.Context) error {
			if attempts.Add(1) == 1 {
				<-ctx.Done()
				return ctx.Err()
			}
			return nil
		}},
	}, Options{
		JobTimeout: 30 * time.Millisecond,
		Retry:      RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatalf("deadline retry did not heal: %v", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("attempts %d, want 2", got)
	}
}

func TestRunCancellationWinsOverRetry(t *testing.T) {
	// The first attempt outlives its deadline; the caller cancels while
	// the retry is backing off, which must end the run at once instead
	// of waiting out the (hour-long) backoff or attempting again.
	ctx, cancel := context.WithCancel(context.Background())
	var attempts atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- Run(ctx, []scenario.Job{{Key: "hopeless", Run: slowUntil(100, &attempts)}}, Options{
			JobTimeout: 10 * time.Millisecond,
			Retry:      RetryPolicy{MaxAttempts: 100, BaseDelay: time.Hour, MaxDelay: time.Hour},
			OnRetry:    func(string, int, error, time.Duration) { cancel() },
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled run returned nil")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not cut the retry backoff short")
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("retried %d times after cancellation, want attempts=1", got)
	}
}

func TestClassification(t *testing.T) {
	deadline := &DeadlineError{Key: "k", Timeout: time.Second}
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain", errors.New("x"), false},
		{"panic", &PanicError{Key: "k", Value: "boom"}, false},
		{"deadline", deadline, true},
		{"wrapped deadline", fmt.Errorf("outer: %w", deadline), true},
		{"deadline with cancellation", errors.Join(deadline, context.Canceled), false},
		{"ctx deadline", context.DeadlineExceeded, false},
		{"ctx cancel", context.Canceled, false},
	} {
		if got := IsTransient(tc.err); got != tc.want {
			t.Errorf("%s: IsTransient=%v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestBackoffBoundsAndGrowth(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	for retry := 1; retry <= 8; retry++ {
		d := p.backoff(retry)
		wantBase := 10 * time.Millisecond << (retry - 1)
		if wantBase > 80*time.Millisecond {
			wantBase = 80 * time.Millisecond
		}
		// Jitter adds 0–50%.
		if d < wantBase || d > wantBase+wantBase/2 {
			t.Errorf("backoff(%d) = %v, want in [%v, %v]", retry, d, wantBase, wantBase+wantBase/2)
		}
	}
	// Defaults apply when the policy leaves delays zero.
	if d := (RetryPolicy{MaxAttempts: 2}).backoff(1); d < 50*time.Millisecond || d > 75*time.Millisecond {
		t.Errorf("default backoff %v outside [50ms, 75ms]", d)
	}
}
