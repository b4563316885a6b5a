package main

// Host-speed calibration. On a shared host the cores' speed changes over
// minutes, and every timing of a run moves with it (the worker's CPU
// time tracks its wall time, so the cores themselves run slower). The
// benchmark times a fixed loop that does not depend on the program
// before the first iteration and after every one, and scales the run's
// timings to a host on which that loop takes calibRefSeconds: a change
// to the program moves the timings and not the loop, a change in host
// speed moves both.

import (
	"runtime"
	"sync"
	"time"
)

const (
	// calibSteps is one calibration's loop steps per goroutine.
	calibSteps = 1 << 25
	// calibRefSeconds is the calibration time of the reference host,
	// the one the timings are scaled to.
	calibRefSeconds = 0.43
	// calibTableWords sizes each goroutine's table (2 MB).
	calibTableWords = 1 << 18
)

// calibrator holds the loop's tables, allocated and touched once so
// that a calibration measures no page faults.
type calibrator struct {
	tables [][]uint64
	sink   uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{tables: make([][]uint64, runtime.GOMAXPROCS(0))}
	for i := range c.tables {
		c.tables[i] = make([]uint64, calibTableWords)
	}
	return c
}

// calibrate runs calibSteps steps on every table at once, one goroutine
// per table (as many as the workload's worker threads), and returns the
// wall time in seconds. Each step is a xorshift draw, a random table
// access and a data-dependent branch.
func (c *calibrator) calibrate() float64 {
	var wg sync.WaitGroup
	sums := make([]uint64, len(c.tables))
	t0 := time.Now()
	for g, tab := range c.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(g)*0x9e3779b97f4a7c15 + 1
			var acc uint64
			for i := 0; i < calibSteps; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				j := x & (calibTableWords - 1)
				switch x >> 61 {
				case 0, 1:
					tab[j] += x
				case 2, 3:
					acc += tab[j] >> 3
				case 4:
					acc ^= tab[(j+64)&(calibTableWords-1)]
				default:
					acc += x * 3
				}
			}
			sums[g] = acc
		}()
	}
	wg.Wait()
	took := time.Since(t0).Seconds()
	for _, s := range sums {
		c.sink += s
	}
	return took
}
