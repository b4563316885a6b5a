package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// The expected cut points are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10.5, 9.9, 10.1, 10.3, 10.0}, 9.95, 10.1, 10.4},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4, 2, 3, 7, 6}, 2, 4, 6},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7, 3}, 95); got != 7 {
		t.Errorf("p95 of two = %v, want 7", got)
	}
}

// fakeClock advances only when told to: sleeping jumps to the wake-up
// time, and the probed operation advances by its scripted cost.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time, stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	default:
	}
	if t.After(c.now) {
		c.now = t
	}
	return true
}

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	c := &fakeClock{now: time.Unix(0, 0)}
	stop := make(chan struct{})
	const period = 10 * time.Millisecond
	// Probe 3 stalls for 35 ms: probes 4, 5 and 6 fall due during the
	// stall and are sent late, back to back.
	costs := []time.Duration{1, 1, 35, 1, 1, 1, 1, 1}
	n := 0
	res := openLoop(c, period, stop, func() error {
		c.now = c.now.Add(costs[n] * time.Millisecond)
		n++
		if n == len(costs) {
			close(stop)
		}
		return nil
	})
	ms := func(ds []time.Duration) []float64 { return durationsMs(ds) }
	wantLat := []float64{1, 1, 35, 26, 17, 8, 1, 1}
	wantLate := []float64{0, 0, 0, 25, 16, 7, 0, 0}
	gotLat, gotLate := ms(res.Latency), ms(res.Late)
	if len(gotLat) != len(wantLat) {
		t.Fatalf("%d probes, want %d", len(gotLat), len(wantLat))
	}
	for i := range wantLat {
		if gotLat[i] != wantLat[i] || gotLate[i] != wantLate[i] {
			t.Errorf("probe %d: latency %v late %v, want %v and %v", i+1, gotLat[i], gotLate[i], wantLat[i], wantLate[i])
		}
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	c := &fakeClock{now: time.Unix(0, 0)}
	stop := make(chan struct{})
	n := 0
	res := openLoop(c, time.Millisecond, stop, func() error {
		n++
		if n == 4 {
			close(stop)
		}
		if n%2 == 0 {
			return errTest
		}
		return nil
	})
	if res.Failed != 2 || len(res.Latency) != 4 {
		t.Errorf("failed %d of %d, want 2 of 4", res.Failed, len(res.Latency))
	}
}

var errTest = errorString("probe failed")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 20 * ms, End: 25 * ms},
		{ID: 5, Parent: 1, Name: "a", Start: 90 * ms, End: 120 * ms}, // runs past root
	}
	self := SelfTimes(spans)
	// root: 100 − (10..60 ∪ 90..100) = 100 − 60 = 40.
	want := map[string]time.Duration{"root": 40 * ms, "a": 25*ms + 30*ms, "b": 30 * ms, "c": 5 * ms}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self(%s) = %v, want %v", name, self[name], d)
		}
	}
	if tot := Totals(spans); tot["a"] != 60*ms {
		t.Errorf("total(a) = %v, want 60ms", tot["a"])
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *Recorder
	id := r.Start("x", 0)
	r.End(id)
	if err := r.Time("y", id, func(int) error { return nil }); err != nil || r.Spans() != nil {
		t.Errorf("nil recorder recorded something")
	}
}
