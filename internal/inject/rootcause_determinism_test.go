package inject

import (
	"testing"

	"avfstress/internal/simcache"
)

// TestRootCauseByteDeterministic: the root-cause tables are part of the
// rendered report, so they inherit the campaign's byte-determinism
// contract — identical across worker counts, cache states (off, cold,
// warm) and checkpoint intervals (disabled, automatic, dense). The
// checkpoint axis is the sharp one: with checkpointing disabled trials
// replay one-by-one in early-resolution mode, with it enabled they
// batch through fork-replay in full mode, and the first-divergent-
// commit records must come out identical on both paths.
func TestRootCauseByteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	o := testOptions(t, 200)
	o.RootCause = true
	o.checkpointInterval = -1
	o.Parallelism = 1
	base, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	if base.RootCause == nil {
		t.Fatal("RootCause campaign returned no attribution tables")
	}
	if base.RootCause.Corrupted == 0 || base.RootCause.Attributed == 0 {
		t.Fatalf("degenerate attribution: %+v", base.RootCause)
	}
	if len(base.RootCause.Instrs) == 0 || len(base.RootCause.Classes) == 0 {
		t.Fatal("attribution produced empty tables")
	}
	want := base.String()

	dir := t.TempDir()
	for _, tc := range []struct {
		name     string
		workers  int
		interval int64
		cache    bool
	}{
		{"ckpt0-w4", 4, 0, false},
		{"ckpt1024-w2", 2, 1024, false},
		{"cold-cache-w1", 1, 0, true},
		{"warm-cache-w4", 4, 0, true},
		{"warm-cache-nockpt", 4, -1, true},
	} {
		o.Parallelism = tc.workers
		o.checkpointInterval = tc.interval
		o.Cache = nil
		if tc.cache {
			o.Cache = simcache.New(simcache.Options{Dir: dir})
		}
		got, err := Run(bg, o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.String() != want {
			t.Errorf("%s: report differs from baseline:\n--- want\n%s\n--- got\n%s", tc.name, want, got)
		}
	}
}

// TestRootCauseOffByDefault: campaigns without the knob carry no
// attribution tables and render the legacy report.
func TestRootCauseOffByDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	o := testOptions(t, 40)
	res, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.RootCause != nil {
		t.Error("RootCause tables attached without Options.RootCause")
	}
}
