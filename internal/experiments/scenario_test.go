package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"avfstress/internal/scenario"
	"avfstress/internal/sched"
	"avfstress/internal/simcache"
)

// TestRegistryCoversNames: every published experiment name resolves to
// a registered scenario, and the registry preserves paper order.
func TestRegistryCoversNames(t *testing.T) {
	c := NewContext(smallOpts())
	reg := c.Registry()
	regNames := reg.Names()
	names := Names()
	if len(regNames) != len(names) {
		t.Fatalf("registry has %d scenarios, Names() has %d", len(regNames), len(names))
	}
	for i, n := range names {
		if regNames[i] != n {
			t.Errorf("registry order diverges at %d: %q vs %q", i, regNames[i], n)
		}
		d, err := reg.Lookup(n)
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		if d.Render == nil {
			t.Errorf("%s has no render step", n)
		}
	}
}

// TestUnknownNameDescriptiveError: unknown names keep the historical
// descriptive error listing the valid experiments.
func TestUnknownNameDescriptiveError(t *testing.T) {
	c := NewContext(smallOpts())
	for _, call := range []func() error{
		func() error { _, err := c.Run(bg, "bogus"); return err },
		func() error { _, err := c.RunScenarios(bg, []string{"fig3", "bogus"}); return err },
	} {
		err := call()
		if err == nil {
			t.Fatal("unknown experiment accepted")
		}
		for _, want := range []string{"unknown experiment", `"bogus"`, "fig3", "hvf"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
	}
}

// TestRunAllMatchesSequential is the tentpole's byte-identity lock: the
// concurrent, scheduler-driven RunAll must produce exactly the combined
// report of the pre-refactor sequential path — each experiment rendered
// in paper order between 72-char '=' rules, joined by blank lines —
// whatever order the scheduler completes jobs in.
func TestRunAllMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite in -short mode")
	}
	store := simcache.New(simcache.Options{})
	opts := smallOpts()
	opts.Cache = store

	// The sequential reference: one experiment at a time, in order,
	// assembled exactly like the historical RunAll.
	seq := NewContext(opts)
	var b strings.Builder
	for _, n := range Names() {
		s, err := seq.Run(bg, n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		fmt.Fprintf(&b, "%s\n%s\n%s\n\n", strings.Repeat("=", 72), s, strings.Repeat("=", 72))
	}

	conc := NewContext(opts)
	conc.Opts.Parallelism = 8 // force real scheduler concurrency
	got, err := conc.RunAll(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got != b.String() {
		t.Errorf("concurrent RunAll diverges from the sequential assembly (%d vs %d bytes)",
			len(got), len(b.String()))
	}
}

// TestRunAllErrorPathReturnsEmptyReport is the satellite regression
// test: on any error the combined report must be empty, never a partial
// render alongside a non-nil error.
func TestRunAllErrorPathReturnsEmptyReport(t *testing.T) {
	c := NewContext(smallOpts())
	boom := errors.New("boom")
	if err := c.Registry().Register(scenario.Definition{
		Name: "boom",
		Render: func(context.Context) (string, error) {
			return "partial output that must not leak", boom
		},
	}); err != nil {
		t.Fatal(err)
	}
	out, err := c.RunScenarios(bg, []string{"table1", "boom"})
	if !errors.Is(err, boom) {
		t.Fatalf("error lost: %v", err)
	}
	if out != "" {
		t.Errorf("error path returned a partial report (%d bytes)", len(out))
	}
	// A pre-cancelled context: same contract, and the context's error.
	ctx, cancel := context.WithCancel(bg)
	cancel()
	out, err = NewContext(smallOpts()).RunAll(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if out != "" {
		t.Errorf("cancelled RunAll returned a partial report (%d bytes)", len(out))
	}
}

// TestDeclaredJobsCoverRender locks the declared-jobs purity invariant
// (DESIGN.md §8): once a scenario's declared jobs have run, rendering
// performs no further simulation — so the scheduler can treat the
// declarations as the complete work list.
func TestDeclaredJobsCoverRender(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite in -short mode")
	}
	for _, name := range Names() {
		store := simcache.New(simcache.Options{})
		opts := smallOpts()
		opts.Cache = store
		c := NewContext(opts)
		d, err := c.lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		var jobs []scenario.Job
		if d.Jobs != nil {
			jobs = d.Jobs()
		}
		if err := sched.Run(bg, jobs, sched.Options{}); err != nil {
			t.Fatalf("%s jobs: %v", name, err)
		}
		before := store.Stats().Simulated
		if _, err := d.Render(bg); err != nil {
			t.Fatalf("%s render: %v", name, err)
		}
		if after := store.Stats().Simulated; after != before {
			t.Errorf("%s render simulated %d times beyond its declared jobs",
				name, after-before)
		}
	}
}

// TestParametricScenarios: the stressmark/workloads parametric forms
// resolve, run and render through the same scheduler path.
func TestParametricScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite in -short mode")
	}
	c := NewContext(smallOpts())
	out, err := c.Run(bg, "stressmark:baseline:uniform")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Stressmark —", "uniform rates", "fitness:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stressmark render missing %q", want)
		}
	}
	out, err = c.Run(bg, "workloads:baseline:mibench")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "dijkstra") || !strings.Contains(out, "QS+RF") {
		t.Errorf("workloads render incomplete:\n%s", out)
	}
	if _, err := c.Run(bg, "stressmark:baseline:cosmic"); err == nil {
		t.Error("bad parametric rates accepted")
	}
	if _, err := c.Run(bg, "workloads:pentium:all"); err == nil {
		t.Error("bad parametric config accepted")
	}
}

// TestResolveSpec: short forms expand with the spec's fields, empty
// scenario lists mean the full suite, and bad names are rejected.
func TestResolveSpec(t *testing.T) {
	names, err := ResolveSpec(scenario.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(names, ",") != strings.Join(Names(), ",") {
		t.Errorf("empty spec resolves to %v", names)
	}
	names, err = ResolveSpec(scenario.Spec{
		Scenarios: []string{"stressmark", "workloads", "fig5"},
		Config:    "configA", Rates: "edr", Suite: "specfp",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"stressmark:configA:edr", "workloads:configA:specfp", "fig5"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("short forms resolved to %v, want %v", names, want)
	}
	if _, err := ResolveSpec(scenario.Spec{Scenarios: []string{"nope"}}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := ResolveSpec(scenario.Spec{Mode: "guess"}); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestCancellationMidSearchPropagates is the satellite cancellation
// test at the experiments layer: cancelling during a GA search stops
// the run with context.Canceled, and the shared store is left valid —
// re-running the same scenario afterwards renders byte-identically to a
// virgin-store control.
func TestCancellationMidSearchPropagates(t *testing.T) {
	if testing.Short() {
		t.Skip("GA search in -short mode")
	}
	store := simcache.New(simcache.Options{})
	opts := Options{
		Scale: 32, Seed: 1, GAPop: 6, GAGens: 4, Parallelism: 1,
		WorkloadInstr: 40_000, WorkloadWarmup: 10_000,
		Cache: store,
	}
	ctx, cancel := context.WithCancel(bg)
	gens := 0
	cancelOpts := opts
	cancelOpts.Logf = func(f string, args ...interface{}) {
		if strings.Contains(f, "gen %d/%d") {
			if gens++; gens == 1 {
				cancel()
			}
		}
	}
	_, err := NewContext(cancelOpts).RunScenarios(ctx, []string{"fig5"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled through the scenario path, got %v", err)
	}

	resumed, err := NewContext(opts).Run(bg, "fig5")
	if err != nil {
		t.Fatal(err)
	}
	control, err := NewContext(Options{
		Scale: 32, Seed: 1, GAPop: 6, GAGens: 4, Parallelism: 1,
		WorkloadInstr: 40_000, WorkloadWarmup: 10_000,
	}).Run(bg, "fig5")
	if err != nil {
		t.Fatal(err)
	}
	if resumed != control {
		t.Error("resuming from a cancelled store changed the fig5 report")
	}
}

// FuzzResolveSpec: resolving an arbitrary JSON spec never panics, and
// the names it accepts are a fixed point — resolving them again, with
// no other spec field set, returns them unchanged (the service journals
// resolved names and re-resolves them on recovery).
func FuzzResolveSpec(f *testing.F) {
	for _, s := range []string{
		`{}`,
		`{"scenarios":["fig3","table1"]}`,
		`{"scenarios":["stressmark","workloads"],"config":"configA","rates":"edr","suite":"specfp"}`,
		`{"scenarios":["faultinject","rootcause"],"inject_trials":500}`,
		`{"scenarios":["rootcause"]}`,
		`{"scenarios":["  fig6 ","faultinject:baseline:rhc:200"]}`,
		`{"scenarios":["stressmark:configA:bogus"]}`,
		`{"scenarios":[""]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var sp scenario.Spec
		if json.Unmarshal(b, &sp) != nil {
			return
		}
		names, err := ResolveSpec(sp)
		if err != nil {
			return
		}
		again, err := ResolveSpec(scenario.Spec{Scenarios: names})
		if err != nil {
			t.Fatalf("resolved names %q rejected on re-resolution: %v", names, err)
		}
		if !slices.Equal(again, names) {
			t.Fatalf("resolved names %q re-resolve to %q", names, again)
		}
	})
}
