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
	"avfstress/internal/simcache"
)

// TestRegistryCoversNames: the scenario table lists the published
// experiments in paper order, once each, and every name resolves to a
// render step. Registered names carry no ':', so none can shadow a
// parametric form.
func TestRegistryCoversNames(t *testing.T) {
	want := []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "table3", "worstcase", "powercontrast", "hvf",
		"rootcause"}
	if names := Names(); !slices.Equal(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for _, n := range Names() {
		if strings.Contains(n, ":") {
			t.Errorf("registered name %q contains ':'", n)
		}
		if r, err := scenarioRender(n); err != nil || r == nil {
			t.Errorf("%s: no render step (%v)", n, err)
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

// TestRunAllMatchesSequential is the byte-identity lock on concurrent
// rendering: RunAll, which renders every scenario concurrently, must
// produce exactly the combined report of the sequential path — each
// experiment rendered in paper order between 72-char '=' rules, joined
// by blank lines — whatever order the renders finish in.
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
	conc.Opts.Parallelism = 8 // concurrent renders over wide inner fan-outs
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
	// The failing render enters through the in-package table.
	saved := registered
	registered = append(saved[:len(saved):len(saved)], struct {
		name   string
		render renderFunc
	}{"boom", func(*Context, context.Context) (string, error) {
		return "partial output that must not leak", boom
	}})
	out, err := c.RunScenarios(bg, []string{"table1", "boom"})
	registered = saved
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

// TestSharedStudiesPaidOnce locks the scenario-level dedup (DESIGN.md
// §8): renders run concurrently and pull their studies through the
// Context's flights, so a portfolio of scenarios sharing one search and
// one workload suite simulates exactly what the first of them alone
// does, and the rootcause view of an injection study adds no replays to
// the faultinject view's.
func TestSharedStudiesPaidOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite in -short mode")
	}
	simulated := func(names []string) int64 {
		t.Helper()
		opts := smallOpts()
		opts.Cache = simcache.New(simcache.Options{})
		opts.Parallelism = 4
		c := NewContext(opts)
		if _, err := c.RunScenarios(bg, names); err != nil {
			t.Fatalf("%v: %v", names, err)
		}
		return c.CacheStats().Simulated
	}
	for _, tc := range []struct{ alone, shared []string }{
		{[]string{"fig3"}, []string{"fig3", "fig4", "fig6", "worstcase", "hvf"}},
		{[]string{"faultinject"}, []string{"faultinject", "rootcause"}},
	} {
		resolve := func(names []string) []string {
			out, err := ResolveSpec(scenario.Spec{Scenarios: names, InjectTrials: 20})
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		alone, shared := simulated(resolve(tc.alone)), simulated(resolve(tc.shared))
		if alone == 0 || shared != alone {
			t.Errorf("%v simulated %d times, %v alone %d: shared studies not paid once",
				tc.shared, shared, tc.alone, alone)
		}
	}
}

// TestParametricScenarios: the stressmark/workloads parametric forms
// resolve, run and render through the same scenario path.
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
	// Trial counts are capped in the name and in the field alike.
	if _, err := ResolveSpec(scenario.Spec{Scenarios: []string{"faultinject:baseline:uniform:1000000"}}); err != nil {
		t.Errorf("largest trial count rejected: %v", err)
	}
	for _, sp := range []scenario.Spec{
		{Scenarios: []string{"faultinject:baseline:uniform:1000001"}},
		{Scenarios: []string{"rootcause:configA:edr:999999999999"}},
		{Scenarios: []string{"faultinject:baseline:uniform:0"}},
		{Scenarios: []string{"faultinject"}, InjectTrials: 1_000_001},
	} {
		if _, err := ResolveSpec(sp); err == nil {
			t.Errorf("oversized or empty campaign accepted: %+v", sp)
		}
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
