package main

import (
	"time"
)

// clock abstracts time for the open-loop generator so its lateness
// accounting can be tested without sleeping.
type clock interface {
	Now() time.Time
	// SleepUntil blocks until t or until stop closes; it reports false
	// when stop closed first.
	SleepUntil(t time.Time, stop <-chan struct{}) bool
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time, stop <-chan struct{}) bool {
	d := time.Until(t)
	if d <= 0 {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return true
	case <-stop:
		return false
	}
}

// probeResult is what an open-loop run measured.
type probeResult struct {
	// Latency of each probe, timed from when it was due, so a stall
	// charges every probe that fell due during it.
	Latency []time.Duration
	// Late is how far behind schedule each probe was sent.
	Late []time.Duration
	// Failed counts probes whose operation returned an error.
	Failed int
}

// openLoop issues op on a fixed schedule (one probe every period,
// starting one period after it is called) from a single goroutine until
// stop closes. A probe that falls due while the previous one is still
// running is sent as soon as that one returns; its latency still
// counts from its due time.
func openLoop(c clock, period time.Duration, stop <-chan struct{}, op func() error) probeResult {
	var res probeResult
	start := c.Now()
	for k := 1; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if !c.SleepUntil(due, stop) {
			return res
		}
		sent := c.Now()
		if err := op(); err != nil {
			res.Failed++
		}
		res.Latency = append(res.Latency, c.Now().Sub(due))
		res.Late = append(res.Late, sent.Sub(due))
	}
}
