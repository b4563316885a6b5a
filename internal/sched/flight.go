package sched

import (
	"errors"
	"sync"
)

// Flight memoises keyed computations with singleflight semantics:
// concurrent callers of one key share a single computation, successful
// values are memoised forever, and errors (including cancellations) are
// handed to every waiter but never memoised — a later call retries. A
// computation that panics memoises nothing either: its waiters get an
// error and the panic continues in the computing caller. The zero value
// is ready to use.
type Flight[K comparable, V any] struct {
	mu       sync.Mutex
	done     map[K]V
	inflight map[K]*flightCall[V]
}

type flightCall[V any] struct {
	ch  chan struct{}
	val V
	err error
}

// Do returns key's memoised value, waits for its in-flight
// computation, or runs compute for it.
func (f *Flight[K, V]) Do(key K, compute func() (V, error)) (V, error) {
	f.mu.Lock()
	if f.done == nil {
		f.done = map[K]V{}
		f.inflight = map[K]*flightCall[V]{}
	}
	if v, ok := f.done[key]; ok {
		f.mu.Unlock()
		return v, nil
	}
	if c, ok := f.inflight[key]; ok {
		f.mu.Unlock()
		<-c.ch
		return c.val, c.err
	}
	c := &flightCall[V]{ch: make(chan struct{}), err: errFlightPanicked}
	f.inflight[key] = c
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.inflight, key)
		if c.err == nil {
			f.done[key] = c.val
		}
		f.mu.Unlock()
		close(c.ch)
	}()

	c.val, c.err = compute()
	return c.val, c.err
}

// errFlightPanicked is what waiters on a panicked computation receive
// (a call starts with it; only a returning computation replaces it).
var errFlightPanicked = errors.New("sched: the shared computation panicked")
