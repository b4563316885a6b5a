// Command avfgen turns code-generator knob settings into a stressmark
// listing (the reproduction's analogue of the paper's generated "C with
// embedded Alpha assembly").
//
// Usage:
//
//	avfgen [-config baseline|configA] [-scale N] [-ref key | knob flags]
//
// Example:
//
//	avfgen -ref baseline            # the paper's Figure 5a stressmark
//	avfgen -loop 60 -loads 12 -stores 12 -l2hit
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"avfstress/internal/codegen"
	"avfstress/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind its process: it parses args, prints the
// listing to stdout and errors to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("avfgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		config = fs.String("config", "baseline", "target configuration: baseline or configA")
		scale  = fs.Int("scale", 1, "cache scale-down factor")
		ref    = fs.String("ref", "", "use reference knobs: baseline, rhc, edr or configA")

		loop    = fs.Int("loop", 81, "loop size (instructions)")
		loads   = fs.Int("loads", 29, "number of loads (incl. chase)")
		stores  = fs.Int("stores", 28, "number of stores")
		indep   = fs.Int("indep", 5, "independent arithmetic instructions")
		missdep = fs.Int("missdep", 7, "instructions dependent on the L2 miss")
		chain   = fs.Float64("chain", 2.14, "average dependence chain length")
		depdist = fs.Int("depdist", 6, "dependency distance")
		longlat = fs.Float64("longlat", 0.8, "fraction of long-latency arithmetic")
		regreg  = fs.Float64("regreg", 0.93, "fraction of reg-reg arithmetic")
		seed    = fs.Int64("seed", 42, "placement seed")
		l2hit   = fs.Bool("l2hit", false, "use the L2-hit generator variant")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "avfgen:", err)
		return 1
	}

	cfg, err := experiments.ResolveConfig(*config, *scale)
	if err != nil {
		return fail(err)
	}
	k := codegen.Knobs{
		LoopSize: *loop, NumLoads: *loads, NumStores: *stores,
		NumIndepArith: *indep, MissDependent: *missdep,
		AvgChainLength: *chain, DepDistance: *depdist,
		FracLongLatency: *longlat, FracRegReg: *regreg,
		Seed: *seed, L2Hit: *l2hit,
	}
	if *ref != "" {
		if k, err = experiments.ReferenceKnobs(*ref); err != nil {
			return fail(err)
		}
	}
	p, eff, err := codegen.Generate(cfg, k, 1<<20)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "; effective knobs (after normalisation for %s):\n", cfg.Name)
	for _, line := range splitLines(eff.String()) {
		fmt.Fprintf(stdout, ";   %s\n", line)
	}
	fmt.Fprintln(stdout, p.Listing())
	if err := codegen.CheckACEClosure(p); err != nil {
		return fail(fmt.Errorf("ACE closure check failed: %w", err))
	}
	fmt.Fprintln(stdout, "; ACE closure check: every value reaches program output ✓")
	return 0
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
