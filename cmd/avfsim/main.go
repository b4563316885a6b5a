// Command avfsim simulates a single program — a named workload proxy or
// a stressmark from knobs — and prints the per-structure AVF report and
// class-normalised SERs.
//
// Usage:
//
//	avfsim -workload 403.gcc [-config baseline] [-scale 32]
//	avfsim -stressmark baseline [-rates rhc]
//	avfsim -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"avfstress/internal/avf"
	"avfstress/internal/codegen"
	"avfstress/internal/experiments"
	"avfstress/internal/persist"
	"avfstress/internal/pipe"
	"avfstress/internal/prog"
	"avfstress/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind its process: it parses args, prints the
// report to stdout and errors to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("avfsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload proxy name (see -list)")
		stress   = fs.String("stressmark", "", "reference stressmark: baseline, rhc, edr or configA")
		knobFile = fs.String("knobs", "", "JSON stressmark file written by avfstress -save")
		config   = fs.String("config", "baseline", "configuration: baseline or configA")
		scale    = fs.Int("scale", 32, "cache scale-down factor")
		rates    = fs.String("rates", "uniform", "fault rates: uniform, rhc or edr")
		instrs   = fs.Int64("instrs", 200_000, "committed-instruction budget")
		warmup   = fs.Int64("warmup", 80_000, "warmup instructions")
		seed     = fs.Int64("seed", 1, "workload synthesis seed")
		list     = fs.Bool("list", false, "list workload proxies and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "avfsim:", err)
		return 1
	}

	if *list {
		for _, pf := range workloads.Profiles() {
			fmt.Fprintf(stdout, "%-16s (%s)\n", pf.Name, pf.Suite)
		}
		return 0
	}
	cfg, err := experiments.ResolveConfig(*config, *scale)
	if err != nil {
		return fail(err)
	}
	fr, err := experiments.ResolveRates(*rates)
	if err != nil {
		return fail(err)
	}

	var p *prog.Program
	switch {
	case *knobFile != "":
		saved, err := persist.LoadStressmark(*knobFile)
		if err != nil {
			return fail(err)
		}
		if p, _, err = codegen.Generate(cfg, saved.Knobs, 1<<40); err != nil {
			return fail(err)
		}
	case *workload != "":
		pf, err := workloads.ByName(*workload)
		if err != nil {
			return fail(err)
		}
		if p, err = pf.Build(cfg, *seed); err != nil {
			return fail(err)
		}
	case *stress != "":
		k, err := experiments.ReferenceKnobs(*stress)
		if err != nil {
			return fail(err)
		}
		if p, _, err = codegen.Generate(cfg, k, 1<<40); err != nil {
			return fail(err)
		}
	default:
		fmt.Fprintln(stderr, "avfsim: need -workload, -stressmark or -knobs (or -list)")
		return 2
	}

	res, err := pipe.Simulate(cfg, p, pipe.RunConfig{
		MaxInstructions: *instrs, WarmupInstructions: *warmup,
	})
	if err != nil {
		return fail(err)
	}

	fmt.Fprint(stdout, res)
	fmt.Fprintf(stdout, "\nIPC %.3f  mispredict %.3f  DL1 miss %.3f  L2 miss %.3f  DTLB miss %.4f\n",
		res.IPC, res.MispredictRate, res.DL1MissRate, res.L2MissRate, res.DTLBMissRate)
	fmt.Fprintf(stdout, "occupancy: ROB %.2f IQ %.2f LQ %.2f SQ %.2f  wrong-path %.3f  ACE instrs %.3f\n",
		res.OccupancyROB, res.OccupancyIQ, res.OccupancyLQ, res.OccupancySQ,
		res.WrongPathFrac, res.ACEInstrFrac)
	fmt.Fprintf(stdout, "\nSER (units/bit, %s rates):\n", *rates)
	for _, cl := range avf.AllClasses() {
		fmt.Fprintf(stdout, "  %-10s %.3f\n", cl, res.SER(cfg, fr, cl))
	}
	return 0
}
