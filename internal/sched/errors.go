package sched

// Error classification (DESIGN.md §11): a job failure is permanent
// unless it is an exceeded per-job deadline. Simulations in this
// repository are deterministic pure functions, so any other failure —
// an error or a recovered panic — would recur identically on every
// retry; only a *DeadlineError, raised when an attempt outlives
// Options.JobTimeout, is worth another attempt under the run's
// RetryPolicy. Every fan-out (Run's jobs and Each's items) converts a
// panic into a *PanicError, so no job's bug ends the process.

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// IsTransient reports whether err is retryable: a *DeadlineError
// anywhere in its chain that does not also carry a cancellation of the
// surrounding run (context.Canceled or context.DeadlineExceeded) —
// cancellation means the run is over.
func IsTransient(err error) bool {
	var de *DeadlineError
	return errors.As(err, &de) && !isCancellation(err)
}

// PanicError is a panic captured inside a scheduled job or an Each
// item: it fails with the panic value and stack, the process — and
// every other job — keeps running. Panics are permanent: a
// deterministic job panics identically on every retry.
type PanicError struct {
	// Key identifies the job (possibly elided; keys are dedup
	// identities and can be fingerprint blobs), or an Each item by its
	// decimal index.
	Key string
	// Value is the recovered panic value.
	Value interface{}
	// Stack is the goroutine stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: job %s panicked: %v\n%s", elideKey(e.Key), e.Value, e.Stack)
}

// DeadlineError reports a job that exceeded the run's per-job deadline
// (Options.JobTimeout). It is deliberately distinct from
// context.DeadlineExceeded — a job deadline fails that job (and is the
// one transient failure: a later attempt may finish in time), it does
// not mean the caller's request timed out.
type DeadlineError struct {
	Key     string
	Timeout time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("sched: job %s exceeded its %v deadline", elideKey(e.Key), e.Timeout)
}

// isCancellation reports whether err carries the surrounding context's
// cancellation.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// elideKey trims job keys for error messages: keys are dedup
// identities, often containing NUL-separated fingerprint blobs, not
// display strings.
func elideKey(key string) string {
	clean := make([]rune, 0, len(key))
	for _, r := range key {
		if r == 0 {
			r = '·'
		}
		clean = append(clean, r)
	}
	const max = 48
	if len(clean) > max {
		return fmt.Sprintf("%q…", string(clean[:max]))
	}
	return fmt.Sprintf("%q", string(clean))
}
