package experiments

import (
	"strings"
	"testing"

	"avfstress/internal/scenario"
	"avfstress/internal/simcache"
)

// TestResolveSpecFaultInject: the short form expands with the spec's
// config/rates/trials, the full form passes through, malformed trial
// counts are rejected.
func TestResolveSpecFaultInject(t *testing.T) {
	names, err := ResolveSpec(scenario.Spec{Scenarios: []string{"faultinject"}})
	if err != nil {
		t.Fatal(err)
	}
	if names[0] != "faultinject:baseline:uniform:1000" {
		t.Errorf("default expansion = %q", names[0])
	}
	names, err = ResolveSpec(scenario.Spec{
		Scenarios: []string{"faultinject"}, Config: "configA", Rates: "edr", InjectTrials: 250,
	})
	if err != nil {
		t.Fatal(err)
	}
	if names[0] != "faultinject:configA:edr:250" {
		t.Errorf("parameterised expansion = %q", names[0])
	}
	if _, err := ResolveSpec(scenario.Spec{Scenarios: []string{"faultinject:baseline:uniform:250"}}); err != nil {
		t.Errorf("full form rejected: %v", err)
	}
	for _, bad := range []string{
		"faultinject:baseline:uniform:0",
		"faultinject:baseline:uniform:x",
		"faultinject:nope:uniform:10",
		"faultinject:baseline:nope:10",
		"faultinject:baseline:uniform",
		"rootcause:baseline:uniform:0",
		"rootcause:nope:uniform:10",
		"rootcause:baseline:uniform",
	} {
		if _, err := ResolveSpec(scenario.Spec{Scenarios: []string{bad}}); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestResolveSpecRootCause: the rootcause short form expands exactly
// like faultinject (the two views share one study), with the spec's
// config/rates/trials or their defaults.
func TestResolveSpecRootCause(t *testing.T) {
	names, err := ResolveSpec(scenario.Spec{
		Scenarios: []string{"rootcause"}, Config: "configA", Rates: "edr", InjectTrials: 250,
	})
	if err != nil {
		t.Fatal(err)
	}
	if names[0] != "rootcause:configA:edr:250" {
		t.Errorf("parameterised expansion = %q", names[0])
	}
	// Unparameterised, the bare name is the registered default
	// experiment and passes through verbatim.
	names, err = ResolveSpec(scenario.Spec{Scenarios: []string{"rootcause"}})
	if err != nil {
		t.Fatal(err)
	}
	if names[0] != "rootcause" {
		t.Errorf("bare name resolved to %q, want the registered experiment", names[0])
	}
	names, err = ResolveSpec(scenario.Spec{Scenarios: []string{"rootcause"}, InjectTrials: 40})
	if err != nil {
		t.Fatal(err)
	}
	if names[0] != "rootcause:baseline:uniform:40" {
		t.Errorf("trial-count expansion = %q", names[0])
	}
	if _, err := ResolveSpec(scenario.Spec{Scenarios: []string{"rootcause:baseline:rhc:40"}}); err != nil {
		t.Errorf("full form rejected: %v", err)
	}
}

// TestFaultInjectScenario runs a small faultinject scenario end to end
// through the scenario path, then checks that a warm store reproduces
// it byte-identically and that the rootcause view of the same
// parameters reuses the memoised study.
func TestFaultInjectScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("injection campaigns in -short mode")
	}
	store := simcache.New(simcache.Options{})
	opts := smallOpts()
	opts.Cache = store
	c := NewContext(opts)
	name := "faultinject:baseline:uniform:20"
	out, err := c.Run(bg, name)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Fault-injection validation", "bit-weighted AVF, injection vs ACE", "derated (rate-weighted)",
		"403.gcc", "qsort", "stressmark campaign, per structure", "ROB", "overall",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// Same spec, fresh context sharing the store: byte-identical report,
	// campaigns replayed entirely from the blob tier.
	c2 := NewContext(opts)
	out2, err := c2.Run(bg, name)
	if err != nil {
		t.Fatal(err)
	}
	if out2 != out {
		t.Errorf("warm-store report differs:\n%s\nvs\n%s", out2, out)
	}

	// The rootcause view of the same parameters shares the memoised
	// study: running it on the warm context replays nothing and emits
	// the attribution tables.
	before := store.Stats().Simulated
	rout, err := c2.Run(bg, "rootcause:baseline:uniform:20")
	if err != nil {
		t.Fatal(err)
	}
	if after := store.Stats().Simulated; after != before {
		t.Errorf("rootcause run simulated %d times beyond the shared study", after-before)
	}
	for _, want := range []string{
		"Root-cause instruction analysis", "instantaneous worst case",
		"Root-cause instructions", "Root-cause instruction classes",
		"SDC density", "403.gcc",
	} {
		if !strings.Contains(rout, want) {
			t.Errorf("rootcause report missing %q:\n%s", want, rout)
		}
	}
}

// TestFaultInjectionWorkerInvariant: the study's campaigns run as
// sched.Each items and land in their panel slots, so its reports —
// the faultinject and rootcause views alike — are byte-identical
// whether the campaigns run one at a time or all at once.
func TestFaultInjectionWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("injection campaigns in -short mode")
	}
	names := []string{"faultinject:baseline:uniform:200", "rootcause:baseline:uniform:200"}
	render := func(workers int) string {
		t.Helper()
		opts := smallOpts()
		opts.Cache = simcache.New(simcache.Options{})
		opts.Parallelism = workers
		out, err := NewContext(opts).RunScenarios(bg, names)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		return out
	}
	serial, parallel := render(1), render(4)
	if serial != parallel {
		t.Errorf("report differs between 1 and 4 workers:\n--- 1\n%s\n--- 4\n%s", serial, parallel)
	}
}
