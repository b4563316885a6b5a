package sched

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFlightPanicReleasesKey: a flight computation that panics
// memoises nothing and wedges nothing — a waiter parked on it gets an
// error (not a zero value), the panic reaches the computing caller, and
// the next call on the key computes afresh.
func TestFlightPanicReleasesKey(t *testing.T) {
	var f Flight[string, int]
	started, gate := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		f.Do("k", func() (int, error) {
			close(started)
			<-gate
			panic("compute blew up")
		})
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		v, err := f.Do("k", func() (int, error) { return 7, nil })
		if err == nil {
			err = fmt.Errorf("waiter got value %d", v)
		}
		waiter <- err
	}()
	// Let the waiter park on the in-flight call before releasing it:
	// Flight keeps no counters, so look for a goroutine blocked in Do
	// itself (the computing one is blocked inside its compute).
	for !parkedInFlight() {
		runtime.Gosched()
	}
	close(gate)
	if r := <-recovered; r == nil {
		t.Fatal("the panic did not reach the computing caller")
	}
	select {
	case err := <-waiter:
		if !errors.Is(err, errFlightPanicked) {
			t.Errorf("waiter error = %v, want the panic error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter on a panicked computation never returned")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, err := f.Do("k", func() (int, error) { return 42, nil }); err != nil || v != 42 {
			t.Errorf("call after the panic = %d, %v", v, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("call after a panicked computation never returned: the key is wedged")
	}
}

// parkedInFlight reports whether some goroutine is blocked on a channel
// receive directly in Flight.Do — a waiter on an in-flight call.
func parkedInFlight() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		lines := strings.SplitN(g, "\n", 3)
		if len(lines) >= 2 && strings.Contains(lines[0], "[chan receive") && strings.Contains(lines[1], ".(*Flight[") {
			return true
		}
	}
	return false
}

// TestFlightComputesEachKeyOnce: concurrent callers of one key share a
// single computation and every later call is served from the memo,
// while an error reaches the caller and is not memoised.
func TestFlightComputesEachKeyOnce(t *testing.T) {
	var (
		f     Flight[int, int]
		mu    sync.Mutex
		calls = map[int]int{}
		gate  = make(chan struct{})
		wg    sync.WaitGroup
	)
	compute := func(k int) func() (int, error) {
		return func() (int, error) {
			mu.Lock()
			calls[k]++
			mu.Unlock()
			<-gate
			return 10 * k, nil
		}
	}
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := g % 2
			if v, err := f.Do(k, compute(k)); err != nil || v != 10*k {
				t.Errorf("Do(%d) = %d, %v", k, v, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	for k := range 2 {
		if v, err := f.Do(k, func() (int, error) { return -1, nil }); err != nil || v != 10*k {
			t.Errorf("memoised Do(%d) = %d, %v", k, v, err)
		}
	}
	if calls[0] != 1 || calls[1] != 1 {
		t.Errorf("computations per key %v, want one each", calls)
	}

	boom := errors.New("boom")
	if _, err := f.Do(2, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Errorf("failing Do = %v, want %v", err, boom)
	}
	if v, err := f.Do(2, func() (int, error) { return 20, nil }); err != nil || v != 20 {
		t.Errorf("Do after an error = %d, %v: the error was memoised", v, err)
	}
}
