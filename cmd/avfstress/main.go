// Command avfstress runs the full automated methodology of the paper's
// Figure 2: a genetic-algorithm search over the code-generator knob space
// that produces an AVF stressmark for a microarchitecture and fault-rate
// set, then reports the final knobs, convergence history, per-structure
// AVFs and class SERs.
//
// Usage:
//
//	avfstress [-config baseline|configA] [-rates uniform|rhc|edr]
//	          [-scale 32] [-pop 20] [-gens 16] [-seed 1] [-listing] [-v]
//
// avfstress is a thin client of the same scenario path avfstressd
// serves: the flags build a declarative scenario.Spec whose parametric
// "stressmark" scenario resolves through the experiments' one scenario
// parser like every other name, so the search shares its weighting,
// memoisation and cancellation semantics with the daemon and the
// experiment suite (the RHC/EDR studies use the paper's core-only
// fitness). Ctrl-C cancels the search between
// simulations; -v streams per-generation GA convergence.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"avfstress/internal/experiments"
	"avfstress/internal/persist"
	"avfstress/internal/scenario"
	"avfstress/internal/simcache"
)

func main() {
	var (
		config   = flag.String("config", "baseline", "configuration: baseline or configA")
		rates    = flag.String("rates", "uniform", "fault rates: uniform, rhc or edr")
		scale    = flag.Int("scale", 32, "cache scale-down factor (1 = paper-exact)")
		pop      = flag.Int("pop", 20, "GA population size (paper: 50)")
		gens     = flag.Int("gens", 16, "GA generations (paper: 50)")
		seed     = flag.Int64("seed", 1, "GA seed")
		listing  = flag.Bool("listing", false, "print the generated stressmark listing")
		save     = flag.String("save", "", "write the final knobs and result to a JSON file")
		cacheDir = flag.String("cache-dir", "", "persist candidate simulations under this directory (shared across runs and processes; results are bit-identical)")
		verbose  = flag.Bool("v", false, "stream search progress (per-generation best/avg fitness)")
	)
	flag.Parse()

	spec := scenario.Spec{
		Scenarios: []string{"stressmark"},
		Config:    *config,
		Rates:     *rates,
		Mode:      "search",
		Scale:     *scale,
		Seed:      *seed,
		GAPop:     *pop,
		GAGens:    *gens,
	}
	base := experiments.Options{Cache: simcache.New(simcache.Options{Dir: *cacheDir})}
	if *verbose {
		base.Logf = func(f string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "# "+f+"\n", args...)
		}
	}
	ctx, names, err := experiments.NewSpecContext(spec, base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "avfstress:", err)
		os.Exit(1)
	}

	cctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "# searching %s / %s rates, %d generations × %d individuals\n",
		*config, *rates, *gens, *pop)
	out, err := ctx.Run(cctx, names[0])
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "avfstress: interrupted")
		} else {
			fmt.Fprintln(os.Stderr, "avfstress:", err)
		}
		os.Exit(1)
	}
	if *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "# cache: %s\n", ctx.CacheStats())
	}
	fmt.Print(out)

	if *listing || *save != "" {
		// The search is memoised: fetching the result re-runs nothing.
		cfg, err := experiments.ResolveConfig(*config, *scale)
		fatal(err)
		fr, err := experiments.ResolveRates(*rates)
		fatal(err)
		res, err := ctx.Stressmark(cctx, experiments.SearchKeyFor(*config, *rates), cfg, fr)
		fatal(err)
		if *listing {
			fmt.Printf("\n%s\n", res.Program.Listing())
		}
		if *save != "" {
			err := persist.SaveStressmark(*save, persist.SavedStressmark{
				Config: cfg.Name, Rates: *rates, Knobs: res.Knobs,
				Fitness: res.Fitness, Result: res.Result,
			})
			fatal(err)
			fmt.Fprintf(os.Stderr, "# saved to %s\n", *save)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "avfstress:", err)
		os.Exit(1)
	}
}
