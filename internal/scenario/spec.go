// Package scenario is the declarative vocabulary of the orchestration
// tier: a Spec names the scenarios to run — paper figures, tables and
// parametric studies — and the configuration to run them under. The
// experiments package resolves every scenario name and renders the
// requested scenarios concurrently, each pulling the studies it needs
// through the Context's memoised flights, so scenarios sharing a study
// pay for it once (DESIGN.md §8).
package scenario

import (
	"fmt"
	"strings"
)

// Spec is the typed, serialisable description of one portfolio request:
// which scenarios to run and under which configuration, fault rates,
// workload suite, search mode and budgets. It is the submission body of
// the avfstressd service (POST /v1/jobs) and the shared currency of the
// CLIs, so a sweep driver can enumerate Specs instead of shelling out
// with ad-hoc flags.
type Spec struct {
	// Scenarios lists the scenario names to run, in order. Empty means
	// the full registered suite in paper order. Besides registered names
	// ("fig3", "table1", ...), four parametric forms are accepted:
	//
	//	stressmark[:<config>:<rates>]            — one stressmark study
	//	workloads[:<config>:<suite>]             — one workload-suite evaluation
	//	faultinject[:<config>:<rates>:<trials>]  — one fault-injection validation
	//	rootcause[:<config>:<rates>:<trials>]    — the same study's root-cause
	//	                                           instruction attribution view
	//
	// The short forms take <config>/<rates>/<suite>/<trials> from the
	// fields below. faultinject and rootcause with equal parameters share
	// one memoised campaign study, so requesting both costs one set of
	// replays.
	Scenarios []string `json:"scenarios,omitempty"`

	// Config selects the microarchitecture for parametric scenarios:
	// "baseline" (default) or "configA".
	Config string `json:"config,omitempty"`
	// Rates selects the fault-rate set for parametric scenarios:
	// "uniform" (default), "rhc" or "edr".
	Rates string `json:"rates,omitempty"`
	// Suite selects the workload suite for the parametric workloads
	// scenario: "specint", "specfp", "mibench" or "all" (default).
	Suite string `json:"suite,omitempty"`
	// Mode selects stressmark provenance: "search" (default; run the
	// GA) or "reference" (the paper's published knobs — fast path).
	Mode string `json:"mode,omitempty"`

	// Scale divides cache/TLB capacities (0 = the harness default).
	Scale int `json:"scale,omitempty"`
	// Seed drives every stochastic component (0 = default).
	Seed int64 `json:"seed,omitempty"`
	// GAPop and GAGens size the stressmark searches (0 = defaults;
	// GAPop at most MaxGAPop).
	GAPop  int `json:"ga_pop,omitempty"`
	GAGens int `json:"ga_gens,omitempty"`
	// WorkloadInstr/WorkloadWarmup budget each workload simulation.
	WorkloadInstr  int64 `json:"workload_instr,omitempty"`
	WorkloadWarmup int64 `json:"workload_warmup,omitempty"`
	// InjectTrials sizes each Monte Carlo fault-injection campaign of
	// the parametric faultinject and rootcause scenarios (0 = 1000; at
	// most MaxInjectTrials, as is the <trials> of a parametric name).
	InjectTrials int `json:"inject_trials,omitempty"`
	// CheckpointInterval is accepted and ignored: it once tuned
	// fork-replay checkpoint capture, which never changes a report. It
	// stays so submissions and journals that carry it still decode.
	CheckpointInterval int64 `json:"checkpoint_interval,omitempty"`
	// Parallelism bounds each CPU fan-out independently — a workload
	// suite's simulations, a GA search's evaluations and an injection
	// study's campaigns (0 = all cores).
	Parallelism int `json:"parallelism,omitempty"`
	// TimeoutSec deadlines the whole request (0 = none).
	TimeoutSec int `json:"timeout_sec,omitempty"`
}

// Admission caps on the request sizes that allocate up front: a
// campaign preallocates its sampled faults and a GA search its
// population. The largest trial count in use is 20,000; the paper's
// population is 50.
const (
	MaxInjectTrials = 1_000_000
	MaxGAPop        = 10_000
)

// enum validates a one-of field, treating "" as the default.
func enum(field, v string, allowed ...string) error {
	if v == "" {
		return nil
	}
	for _, a := range allowed {
		if v == a {
			return nil
		}
	}
	return fmt.Errorf("scenario: spec %s %q not one of %s", field, v, strings.Join(allowed, "/"))
}

// Validate checks the spec's enumerated and numeric fields. Scenario
// names are resolved, and checked, by internal/experiments.
func (s Spec) Validate() error {
	if err := enum("config", s.Config, "baseline", "configA"); err != nil {
		return err
	}
	if err := enum("rates", s.Rates, "uniform", "rhc", "edr"); err != nil {
		return err
	}
	if err := enum("suite", s.Suite, "specint", "specfp", "mibench", "all"); err != nil {
		return err
	}
	if err := enum("mode", s.Mode, "search", "reference"); err != nil {
		return err
	}
	for _, n := range s.Scenarios {
		if strings.TrimSpace(n) == "" {
			return fmt.Errorf("scenario: spec contains an empty scenario name")
		}
	}
	switch {
	case s.Scale < 0:
		return fmt.Errorf("scenario: spec scale %d negative", s.Scale)
	case s.GAPop < 0 || s.GAGens < 0:
		return fmt.Errorf("scenario: spec GA sizing (%d×%d) negative", s.GAGens, s.GAPop)
	case s.GAPop > MaxGAPop:
		return fmt.Errorf("scenario: spec GA population %d above %d", s.GAPop, MaxGAPop)
	case s.WorkloadInstr < 0 || s.WorkloadWarmup < 0:
		return fmt.Errorf("scenario: spec workload budget negative")
	case s.InjectTrials < 0 || s.InjectTrials > MaxInjectTrials:
		return fmt.Errorf("scenario: spec inject trials %d outside 0..%d", s.InjectTrials, MaxInjectTrials)
	case s.Parallelism < 0:
		return fmt.Errorf("scenario: spec parallelism %d negative", s.Parallelism)
	case s.TimeoutSec < 0:
		return fmt.Errorf("scenario: spec timeout %ds negative", s.TimeoutSec)
	}
	return nil
}
