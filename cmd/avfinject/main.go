// Command avfinject runs a Monte Carlo statistical fault-injection
// campaign — the standard validation cross-check for the repository's
// ACE-based AVF accounting. It samples single-bit (structure, bit,
// cycle) targets from a golden simulation, replays the run
// deterministically with each bit flipped, classifies every trial as
// masked, SDC or detected, and reports injection-measured AVF beside
// ACE-based AVF with 95% confidence intervals (DESIGN.md §9).
//
// Usage:
//
//	avfinject [-config baseline|configA] [-rates uniform|rhc|edr]
//	          [-trials 1000] [-scale 32] [-seed 1] [-mode reference|search]
//	          [-root-cause] [-cache-dir DIR] [-cpuprofile f] [-v]
//
// avfinject is a thin client of the same scenario path avfstressd
// serves: the flags build a declarative scenario.Spec whose parametric
// faultinject scenario runs through the experiments scenario path, so the
// campaign shares the suite's stressmark search, per-campaign outcome
// memoisation and cancellation semantics with the daemon (POST /v1/jobs with
// {"scenarios": ["faultinject"], ...} runs the identical study).
// -root-cause appends the rootcause view of the same study — per-
// instruction and per-class attribution tables built from each SDC/DUE
// trial's first divergent commit (DESIGN.md §14) — at no extra replay
// cost. -cpuprofile writes a pprof CPU profile of the run, as on
// avfbench. Ctrl-C cancels between replays.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"

	"avfstress/internal/experiments"
	"avfstress/internal/scenario"
	"avfstress/internal/simcache"
)

func main() {
	var (
		config    = flag.String("config", "baseline", "configuration: baseline or configA")
		rates     = flag.String("rates", "uniform", "fault rates: uniform, rhc or edr")
		trials    = flag.Int("trials", 1000, "Monte Carlo trials per campaign")
		scale     = flag.Int("scale", 32, "cache scale-down factor (1 = paper-exact)")
		seed      = flag.Int64("seed", 1, "sampling and search seed (campaigns are byte-deterministic per seed)")
		mode      = flag.String("mode", "reference", "stressmark provenance: reference (published knobs) or search (run the GA)")
		rootCause = flag.Bool("root-cause", false, "also report root-cause attribution tables: the instructions whose values SDC/DUE trials corrupted, ranked (shares the campaign's replays)")
		cacheDir  = flag.String("cache-dir", "", "persist simulations and per-campaign outcome tables under this directory (shared across runs; results are bit-identical)")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		verbose   = flag.Bool("v", false, "stream per-campaign progress")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "avfinject: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "avfinject: start cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	// fail flushes the CPU profile before exiting (os.Exit skips defers),
	// so a profile of a failing run is still readable.
	fail := func(format string, args ...interface{}) {
		if *cpuprof != "" {
			pprof.StopCPUProfile()
		}
		fmt.Fprintf(os.Stderr, format, args...)
		os.Exit(1)
	}

	scenarios := []string{"faultinject"}
	if *rootCause {
		// The rootcause view shares the faultinject study's memoised
		// campaigns — the second scenario costs zero extra replays.
		scenarios = append(scenarios, "rootcause")
	}
	spec := scenario.Spec{
		Scenarios:    scenarios,
		Config:       *config,
		Rates:        *rates,
		InjectTrials: *trials,
		Mode:         *mode,
		Scale:        *scale,
		Seed:         *seed,
	}
	base := experiments.Options{Cache: simcache.New(simcache.Options{Dir: *cacheDir})}
	if *verbose {
		base.Logf = func(f string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "# "+f+"\n", args...)
		}
	}
	ctx, names, err := experiments.NewSpecContext(spec, base)
	if err != nil {
		fail("avfinject: %v\n", err)
	}

	cctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "# injecting %s / %s rates, %d trials per campaign\n",
		*config, *rates, *trials)
	var out string
	if len(names) == 1 {
		out, err = ctx.Run(cctx, names[0])
	} else {
		out, err = ctx.RunScenarios(cctx, names)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fail("avfinject: interrupted\n")
		}
		fail("avfinject: %v\n", err)
	}
	if *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "# cache: %s\n", ctx.CacheStats())
	}
	fmt.Print(out)
}
