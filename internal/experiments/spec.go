package experiments

import (
	"context"
	"fmt"
	"strings"

	"avfstress/internal/avf"
	"avfstress/internal/core"
	"avfstress/internal/report"
	"avfstress/internal/scenario"
	"avfstress/internal/uarch"
	"avfstress/internal/workloads"
)

// ResolveConfig returns the named configuration ("baseline" or
// "configA", "" defaulting to baseline), scaled by scale (≤0: the
// harness default).
func ResolveConfig(name string, scale int) (uarch.Config, error) {
	if scale <= 0 {
		scale = Options{}.withDefaults().Scale
	}
	switch name {
	case "", "baseline":
		return uarch.Scaled(uarch.Baseline(), scale), nil
	case "configA":
		return uarch.Scaled(uarch.ConfigA(), scale), nil
	}
	return uarch.Config{}, fmt.Errorf("experiments: unknown configuration %q (have baseline, configA)", name)
}

// ResolveRates returns the named fault-rate set ("uniform", "rhc" or
// "edr"; "" defaults to uniform).
func ResolveRates(name string) (uarch.FaultRates, error) {
	switch name {
	case "", "uniform":
		return uarch.UniformRates(1), nil
	case "rhc":
		return uarch.RHCRates(), nil
	case "edr":
		return uarch.EDRRates(), nil
	}
	return uarch.FaultRates{}, fmt.Errorf("experiments: unknown fault rates %q (have uniform, rhc, edr)", name)
}

// resolveSuites maps a suite name to the workload suites it covers
// ("all" or "" means every suite).
func resolveSuites(name string) ([]workloads.Suite, error) {
	switch name {
	case "", "all":
		return []workloads.Suite{workloads.SPECInt, workloads.SPECFP, workloads.MiBench}, nil
	case "specint":
		return []workloads.Suite{workloads.SPECInt}, nil
	case "specfp":
		return []workloads.Suite{workloads.SPECFP}, nil
	case "mibench":
		return []workloads.Suite{workloads.MiBench}, nil
	}
	return nil, fmt.Errorf("experiments: unknown suite %q (have specint, specfp, mibench, all)", name)
}

// SearchKeyFor maps a (config, rates) pair onto the search key the
// registered experiments use, so parametric stressmark scenarios share
// the suite's fitness weighting (core-only for the RHC/EDR mitigation
// studies, balanced otherwise), its reference-knob fast path and its
// memoised search results.
func SearchKeyFor(config, rates string) string {
	switch rates {
	case "rhc", "edr":
		return rates
	}
	if config == "configA" {
		return "configA"
	}
	return "baseline"
}

// ResolveSpec validates sp and returns the canonical scenario names it
// runs: the short forms ("stressmark", "workloads", "faultinject",
// "rootcause") are expanded with the spec's config/rates/suite/trials
// fields, an empty list means the full suite in paper order, and every
// resulting name must parse (scenarioRender). It is pure — no
// simulation state is touched — so services can reject bad submissions
// before scheduling anything.
func ResolveSpec(sp scenario.Spec) ([]string, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	names := sp.Scenarios
	if len(names) == 0 {
		names = Names()
	}
	out := make([]string, len(names))
	for i, n := range names {
		n = strings.TrimSpace(n)
		switch n {
		case "stressmark":
			n = "stressmark:" + orDefault(sp.Config, "baseline") + ":" + orDefault(sp.Rates, "uniform")
		case "workloads":
			n = "workloads:" + orDefault(sp.Config, "baseline") + ":" + orDefault(sp.Suite, "all")
		case "faultinject", "rootcause":
			// "rootcause" is also a registered experiment (the default
			// view); the bare name only expands when the spec actually
			// parameterises it, so an empty spec still resolves to the
			// registered suite verbatim.
			if n == "rootcause" && sp.Config == "" && sp.Rates == "" && sp.InjectTrials <= 0 {
				break
			}
			trials := sp.InjectTrials
			if trials <= 0 {
				trials = defaultInjectTrials
			}
			n = fmt.Sprintf("%s:%s:%s:%d",
				n, orDefault(sp.Config, "baseline"), orDefault(sp.Rates, "uniform"), trials)
		}
		if _, err := scenarioRender(n); err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

func orDefault(v, d string) string {
	if v == "" {
		return d
	}
	return v
}

// NewSpecContext builds a Context for sp layered over base options (the
// caller injects infrastructure: cache store, progress sink,
// parallelism defaults) and returns it with the resolved scenario
// names. Spec fields, when set, win over base.
func NewSpecContext(sp scenario.Spec, base Options) (*Context, []string, error) {
	names, err := ResolveSpec(sp)
	if err != nil {
		return nil, nil, err
	}
	opts := base
	if sp.Scale > 0 {
		opts.Scale = sp.Scale
	}
	if sp.Seed != 0 {
		opts.Seed = sp.Seed
	}
	if sp.GAPop > 0 {
		opts.GAPop = sp.GAPop
	}
	if sp.GAGens > 0 {
		opts.GAGens = sp.GAGens
	}
	if sp.WorkloadInstr > 0 {
		opts.WorkloadInstr = sp.WorkloadInstr
	}
	if sp.WorkloadWarmup > 0 {
		opts.WorkloadWarmup = sp.WorkloadWarmup
	}
	if sp.Parallelism > 0 {
		opts.Parallelism = sp.Parallelism
	}
	if sp.Mode != "" {
		opts.UseReferenceKnobs = sp.Mode == "reference"
	}
	return NewContext(opts), names, nil
}

// renderStressmark reports one stressmark study: final knobs,
// convergence, per-structure result and class SERs.
func renderStressmark(sm *core.SearchResult, cfg uarch.Config, rates uarch.FaultRates, ratesName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Stressmark — %s under %s rates\n\n", cfg.Name, ratesName)
	fmt.Fprintf(&b, "final solution (%d evaluations, %d cataclysms, %d failed candidates):\n\n%s\n",
		sm.Evaluations, sm.Cataclysms, sm.FailedEvals, sm.Knobs)
	avgs := make([]float64, len(sm.History))
	for i, h := range sm.History {
		avgs[i] = h.Avg
	}
	fmt.Fprintf(&b, "convergence (avg fitness/gen): %s\n\n", report.Sparkline(avgs))
	b.WriteString(sm.Result.String())
	fmt.Fprintf(&b, "\nSER (units/bit, %s rates):\n", ratesName)
	for _, cl := range avf.AllClasses() {
		fmt.Fprintf(&b, "  %-10s %.3f\n", cl, sm.Result.SER(cfg, rates, cl))
	}
	fmt.Fprintf(&b, "fitness: %.4f\n", sm.Fitness)
	return b.String()
}

// renderWorkloads reports per-suite class SERs and IPC for the proxies.
func (c *Context) renderWorkloads(ctx context.Context, cfg uarch.Config, suites []workloads.Suite, suiteName string) (string, error) {
	rates := uarch.UniformRates(1)
	var b strings.Builder
	fmt.Fprintf(&b, "Workload suite %s — SER (units/bit, uniform rates) on %s\n\n", suiteName, cfg.Name)
	t := &report.Table{Headers: []string{"program", "IPC", "QS", "QS+RF", "DL1+DTLB", "L2"}}
	for _, s := range suites {
		rs, err := c.WorkloadsBySuite(ctx, cfg, s)
		if err != nil {
			return "", err
		}
		for _, r := range rs {
			row := serRow(r.Workload, r, cfg, rates)
			t.AddRow(row.Name, fmt.Sprintf("%.2f", r.IPC),
				row.SER[avf.ClassQS], row.SER[avf.ClassQSRF],
				row.SER[avf.ClassDL1DTLB], row.SER[avf.ClassL2])
		}
	}
	b.WriteString(t.String())
	return b.String(), nil
}
