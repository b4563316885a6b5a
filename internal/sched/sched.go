// Package sched is the repository's one fan-out mechanism. Run
// executes a declared job DAG (internal/scenario Jobs) on a bounded
// worker pool: jobs sharing a Key are deduplicated — the combined DAG
// of many scenarios pays for each shared workload suite or stressmark
// search once — and a job becomes runnable the moment its dependencies
// complete, bounded only by the worker count. Each is the flat
// counterpart, a bounded parallel-for over independent items: a GA
// generation's fitness evaluations, a workload suite's simulations and
// a campaign's replay slices all run through it.
//
// Cancellation is first-class: the context passed to Run or Each is
// handed to every job, the first job error (or the caller's
// cancellation) stops new work from starting, and both return once all
// in-flight jobs have drained. Because every job result in this
// repository is memoised content-addressed (internal/simcache), a
// cancelled run leaves only complete, valid entries behind — re-running
// after a cancellation resumes from what finished.
//
// Faults are contained per job in every fan-out (DESIGN.md §11): a
// panicking job or item fails with a *PanicError carrying its stack —
// never the process. Options.JobTimeout deadlines each attempt of a
// Run job, failing a runaway job with a *DeadlineError instead of
// hanging the run; deadline failures, and only those, retry with
// exponential backoff and jitter under Options.Retry.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"avfstress/internal/scenario"
)

// RetryPolicy bounds the scheduler's retries of jobs that exceeded
// their deadline (IsTransient): exponential backoff with full jitter,
// capped. The zero value disables retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per job, including
	// the first (0 or 1 = no retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 50ms
	// when retries are enabled); attempt n waits BaseDelay·2^(n-1)
	// plus up to 50% jitter, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 5s).
	MaxDelay time.Duration
}

// backoff computes the wait before retry number retry (1-based).
func (p RetryPolicy) backoff(retry int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = 5 * time.Second
	}
	d := base
	for i := 1; i < retry && d < maxd; i++ {
		d *= 2
	}
	if d > maxd {
		d = maxd
	}
	// Full 0–50% jitter decorrelates retries of jobs that timed out
	// together, so they do not contend again in lockstep.
	return d + time.Duration(rand.Int64N(int64(d)/2+1))
}

// Options configures one Run.
type Options struct {
	// Workers bounds concurrently executing jobs (0 = GOMAXPROCS).
	Workers int
	// Retry bounds retries of jobs that exceeded JobTimeout (zero
	// value: no retries). Every other failure is permanent and fails
	// the run on the first attempt.
	Retry RetryPolicy
	// OnRetry, when set, observes every retry decision (job key,
	// attempt number that failed, its error, and the backoff chosen).
	// It may be called from multiple goroutines.
	OnRetry func(key string, attempt int, err error, backoff time.Duration)
	// JobTimeout deadlines each job attempt (0 = none). An expired
	// attempt fails with a *DeadlineError — retried under Retry, then
	// failing only that job, never masquerading as a cancellation of
	// the whole run.
	JobTimeout time.Duration
}

// node is one deduplicated job in the DAG.
type node struct {
	key        string
	run        func(context.Context) error
	dependents []*node
	pending    int // remaining dependencies (guarded by Run's mutex)
}

// Run executes jobs in dependency order and returns the first error
// (job failure, or ctx cancellation). Jobs with identical Keys are
// executed once — by the declared-jobs purity contract (DESIGN.md §8)
// they describe identical work, so the first declaration wins. On
// error or cancellation, running jobs drain but no new jobs start.
// Job errors are returned unwrapped (keys are dedup identities, not
// display strings), so jobs should return self-describing errors.
func Run(ctx context.Context, jobs []scenario.Job, opts Options) error {
	nodes, err := build(jobs)
	if err != nil {
		return err
	}
	if len(nodes) == 0 {
		return ctx.Err()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, workers)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	var exec func(n *node)
	exec = func(n *node) {
		defer wg.Done()
		sem <- struct{}{}
		err := runAttempts(cctx, n, opts)
		<-sem
		if err != nil {
			// Job errors are propagated as-is: keys are dedup
			// identities (often fingerprint blobs), not display
			// strings, so jobs must return self-describing errors.
			fail(err)
		}
		// Release dependents; the last dependency to finish launches
		// each one (even after a failure, so the DAG always drains —
		// released jobs then see the cancelled context and skip work).
		mu.Lock()
		var ready []*node
		for _, d := range n.dependents {
			d.pending--
			if d.pending == 0 {
				ready = append(ready, d)
			}
		}
		mu.Unlock()
		for _, d := range ready {
			wg.Add(1)
			go exec(d)
		}
	}
	mu.Lock()
	var roots []*node
	for _, n := range nodes {
		if n.pending == 0 {
			roots = append(roots, n)
		}
	}
	mu.Unlock()
	for _, n := range roots {
		wg.Add(1)
		go exec(n)
	}
	wg.Wait()

	mu.Lock()
	err = firstErr
	mu.Unlock()
	if err != nil {
		return err
	}
	return ctx.Err()
}

// Each runs fn(ctx, i) for every i in [0, n) on at most workers
// goroutines (workers ≤ 0: GOMAXPROCS), handing indices out in
// ascending order. It is Run's flat counterpart for independent items —
// no keys, no dedup, no deadlines or retries: each item is one
// panic-contained attempt, and a panic fails it with a *PanicError
// keyed by its index. The first item error stops new items from
// starting and so does the caller's cancellation; Each returns once
// in-flight items drain, with ctx's error if the caller cancelled and
// otherwise the first item error. Items that write only their own
// index's slot of a shared slice need no further synchronisation.
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
				run := func(ctx context.Context) error { return fn(ctx, i) }
				if err := runOnce(cctx, strconv.Itoa(i), run, 0); err != nil {
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

// runAttempts executes one job under the run's fault-containment
// policy: each attempt is panic-recovered and deadline-bounded, and
// deadline failures retry with backoff up to Retry.MaxAttempts. The
// surrounding run's cancellation always ends the loop immediately.
func runAttempts(ctx context.Context, n *node, opts Options) error {
	attempts := opts.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 1; ; attempt++ {
		err := runOnce(ctx, n.key, n.run, opts.JobTimeout)
		if err == nil || attempt >= attempts || !IsTransient(err) || ctx.Err() != nil {
			return err
		}
		delay := opts.Retry.backoff(attempt)
		if opts.OnRetry != nil {
			opts.OnRetry(n.key, attempt, err, delay)
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return err
		}
	}
}

// runOnce is a single panic-contained, deadline-bounded job attempt. A
// panicking job fails with a *PanicError carrying its stack — the
// worker goroutine (and the process) survives. An attempt that exceeds
// timeout while the surrounding run is still live fails with a
// *DeadlineError instead of a bare context.DeadlineExceeded, so a slow
// job cannot impersonate a caller timeout.
func runOnce(ctx context.Context, key string, run func(context.Context) error, timeout time.Duration) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Key: key, Value: r, Stack: debug.Stack()}
		}
	}()
	if err := ctx.Err(); err != nil {
		return err
	}
	if run == nil {
		return nil
	}
	jctx := ctx
	var cancel context.CancelFunc
	if timeout > 0 {
		jctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	err = run(jctx)
	if timeout > 0 && err != nil && errors.Is(err, context.DeadlineExceeded) &&
		jctx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
		err = &DeadlineError{Key: key, Timeout: timeout}
	}
	return err
}

// build deduplicates jobs by Key, wires the dependency edges and
// rejects unknown dependencies and cycles.
func build(jobs []scenario.Job) ([]*node, error) {
	byKey := make(map[string]*node, len(jobs))
	deps := make(map[string][]string, len(jobs))
	var nodes []*node
	for _, j := range jobs {
		if j.Key == "" {
			return nil, fmt.Errorf("sched: job with empty key")
		}
		if _, ok := byKey[j.Key]; ok {
			continue // purity contract: identical key ⇒ identical work
		}
		n := &node{key: j.Key, run: j.Run}
		byKey[j.Key] = n
		deps[j.Key] = j.Deps
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		seen := map[string]bool{}
		for _, dk := range deps[n.key] {
			if seen[dk] {
				continue
			}
			seen[dk] = true
			dep, ok := byKey[dk]
			if !ok {
				return nil, fmt.Errorf("sched: job %q depends on unknown job %q", n.key, dk)
			}
			if dep == n {
				return nil, fmt.Errorf("sched: job %q depends on itself", n.key)
			}
			dep.dependents = append(dep.dependents, n)
			n.pending++
		}
	}
	// Kahn's algorithm over a scratch copy of the indegrees: if not
	// every node is reachable from the roots, the remainder is cyclic.
	indeg := make(map[*node]int, len(nodes))
	var queue []*node
	for _, n := range nodes {
		indeg[n] = n.pending
		if n.pending == 0 {
			queue = append(queue, n)
		}
	}
	reached := 0
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		reached++
		for _, d := range n.dependents {
			if indeg[d]--; indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if reached != len(nodes) {
		for _, n := range nodes {
			if indeg[n] > 0 {
				return nil, fmt.Errorf("sched: dependency cycle involving job %q", n.key)
			}
		}
	}
	return nodes, nil
}
