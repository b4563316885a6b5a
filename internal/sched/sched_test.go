package sched

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avfstress/internal/scenario"
)

// recorder builds jobs that append their key to a shared log.
type recorder struct {
	mu  sync.Mutex
	log []string
}

func (r *recorder) job(key string, deps ...string) scenario.Job {
	return scenario.Job{Key: key, Deps: deps, Run: func(context.Context) error {
		r.mu.Lock()
		r.log = append(r.log, key)
		r.mu.Unlock()
		return nil
	}}
}

func (r *recorder) index(key string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, k := range r.log {
		if k == key {
			return i
		}
	}
	return -1
}

func TestTopologicalOrder(t *testing.T) {
	r := &recorder{}
	// Diamond: a → (b, c) → d.
	jobs := []scenario.Job{
		r.job("d", "b", "c"), r.job("b", "a"), r.job("c", "a"), r.job("a"),
	}
	if err := Run(context.Background(), jobs, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if len(r.log) != 4 {
		t.Fatalf("ran %d jobs, want 4: %v", len(r.log), r.log)
	}
	for _, edge := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}} {
		if r.index(edge[0]) > r.index(edge[1]) {
			t.Errorf("%s ran after its dependent %s: %v", edge[0], edge[1], r.log)
		}
	}
}

func TestDedupByKey(t *testing.T) {
	var runs atomic.Int32
	shared := scenario.Job{Key: "shared", Run: func(context.Context) error {
		runs.Add(1)
		return nil
	}}
	jobs := []scenario.Job{shared, shared, shared,
		{Key: "after", Deps: []string{"shared", "shared"}, Run: func(context.Context) error { return nil }}}
	if err := Run(context.Background(), jobs, Options{}); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Errorf("shared job ran %d times", runs.Load())
	}
}

func TestWorkerBound(t *testing.T) {
	const workers = 3
	var cur, max atomic.Int32
	var jobs []scenario.Job
	for i := 0; i < 20; i++ {
		jobs = append(jobs, scenario.Job{Key: string(rune('a' + i)), Run: func(context.Context) error {
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			return nil
		}})
	}
	if err := Run(context.Background(), jobs, Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > workers {
		t.Errorf("observed %d concurrent jobs, bound is %d", m, workers)
	}
}

func TestErrorCancelsRemaining(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	jobs := []scenario.Job{
		{Key: "bad", Run: func(context.Context) error { return boom }},
		{Key: "after", Deps: []string{"bad"}, Run: func(context.Context) error {
			ran.Add(1)
			return nil
		}},
	}
	err := Run(context.Background(), jobs, Options{Workers: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("error lost: %v", err)
	}
	if err.Error() != "boom" {
		t.Errorf("job error not returned as-is (keys are not display strings): %v", err)
	}
	if ran.Load() != 0 {
		t.Error("dependent of a failed job still executed its work")
	}
}

func TestCancellationStopsNewJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	first := make(chan struct{})
	jobs := []scenario.Job{
		{Key: "one", Run: func(context.Context) error {
			close(first)
			cancel()
			return nil
		}},
		{Key: "two", Deps: []string{"one"}, Run: func(context.Context) error {
			ran.Add(1)
			return nil
		}},
	}
	err := Run(ctx, jobs, Options{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	<-first
	if ran.Load() != 0 {
		t.Error("job started after cancellation")
	}
}

func TestValidation(t *testing.T) {
	noop := func(context.Context) error { return nil }
	if err := Run(context.Background(), []scenario.Job{{Run: noop}}, Options{}); err == nil {
		t.Error("empty key accepted")
	}
	if err := Run(context.Background(),
		[]scenario.Job{{Key: "a", Deps: []string{"ghost"}, Run: noop}}, Options{}); err == nil ||
		!strings.Contains(err.Error(), "ghost") {
		t.Errorf("unknown dependency not reported: %v", err)
	}
	cyc := []scenario.Job{
		{Key: "a", Deps: []string{"b"}, Run: noop},
		{Key: "b", Deps: []string{"a"}, Run: noop},
	}
	if err := Run(context.Background(), cyc, Options{}); err == nil ||
		!strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not reported: %v", err)
	}
	if err := Run(context.Background(),
		[]scenario.Job{{Key: "a", Deps: []string{"a"}, Run: noop}}, Options{}); err == nil {
		t.Error("self-dependency accepted")
	}
	if err := Run(context.Background(), nil, Options{}); err != nil {
		t.Errorf("empty DAG should succeed: %v", err)
	}
}

func TestNilRunIsGroupingNode(t *testing.T) {
	r := &recorder{}
	jobs := []scenario.Job{
		r.job("leaf"),
		{Key: "group", Deps: []string{"leaf"}},
		r.job("top", "group"),
	}
	if err := Run(context.Background(), jobs, Options{}); err != nil {
		t.Fatal(err)
	}
	if r.index("leaf") > r.index("top") {
		t.Errorf("grouping node broke ordering: %v", r.log)
	}
}
