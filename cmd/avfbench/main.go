// Command avfbench regenerates the paper's tables and figures.
//
// Usage:
//
//	avfbench [-run name[,name...]] [-scale N] [-seed N] [-pop N] [-gens N]
//	         [-ref] [-list] [-quiet] [-cpuprofile f] [-memprofile f]
//
// With no -run flag the complete suite (Tables I-III, Figures 3-9 and the
// §VI worst-case analysis) is produced. -ref skips the GA searches and evaluates the paper's published
// knob settings directly. -scale 1 uses the paper-exact cache geometry
// (needs much larger budgets; see DESIGN.md §4). -cpuprofile and
// -memprofile write pprof profiles of the run, so hot-path hunts don't
// need ad-hoc harnesses.
//
// avfbench is a thin client of the experiments scenario table (the same
// path avfstressd serves): the requested scenarios render concurrently,
// sharing the searches and workload suites they have in common, and
// the combined report is assembled in request order — byte-identical to
// a sequential run. Ctrl-C cancels cleanly between simulations.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"avfstress/internal/experiments"
	"avfstress/internal/simcache"
)

func main() {
	var (
		run        = flag.String("run", "", "comma-separated experiments to run (default: all)")
		scale      = flag.Int("scale", 32, "cache scale-down factor (1 = paper-exact geometry)")
		seed       = flag.Int64("seed", 1, "random seed")
		pop        = flag.Int("pop", 14, "GA population size")
		gens       = flag.Int("gens", 12, "GA generations")
		ref        = flag.Bool("ref", false, "use the paper's published knobs instead of searching")
		list       = flag.Bool("list", false, "list experiment names and exit")
		quiet      = flag.Bool("quiet", false, "suppress progress logging")
		cacheDir   = flag.String("cache-dir", "", "persist simulation results under this directory (shared across runs; results are bit-identical)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return
	}
	profiling := *cpuprofile != ""
	if profiling {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "avfbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "avfbench: start cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	// fail flushes the CPU profile before exiting (os.Exit skips defers),
	// so a profile of a failing run is still readable.
	fail := func(format string, args ...interface{}) {
		if profiling {
			pprof.StopCPUProfile()
		}
		fmt.Fprintf(os.Stderr, format, args...)
		os.Exit(1)
	}
	opts := experiments.Options{
		Scale: *scale, Seed: *seed, GAPop: *pop, GAGens: *gens,
		UseReferenceKnobs: *ref, Cache: simcache.New(simcache.Options{Dir: *cacheDir}),
	}
	if !*quiet {
		opts.Logf = func(f string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "# "+f+"\n", args...)
		}
	}
	ctx := experiments.NewContext(opts)

	cctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	names := experiments.Names()
	if *run != "" {
		names = strings.Split(*run, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
	}
	out, err := ctx.RunScenarios(cctx, names)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fail("avfbench: interrupted\n")
		}
		fail("avfbench: %v\n", err)
	}
	fmt.Print(out)
	if *cacheDir != "" {
		// Stats go to stderr so stdout stays byte-identical across cache
		// states; the CI cache-effectiveness smoke greps this line.
		fmt.Fprintf(os.Stderr, "# cache: %s\n", ctx.CacheStats())
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail("avfbench: -memprofile: %v\n", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail("avfbench: write heap profile: %v\n", err)
		}
	}
}
