package experiments

import (
	"context"
	"fmt"
	"strings"

	"avfstress/internal/scenario"
	"avfstress/internal/sched"
)

// Names lists the runnable experiments: the paper figures/tables in
// paper order, then the harness extras (worst-case bound, power
// contrast, HVF bounds, root-cause attribution).
func Names() []string {
	return []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "table3", "worstcase", "powercontrast", "hvf",
		"rootcause"}
}

func unknownExperiment(name string) error {
	return fmt.Errorf("experiments: unknown experiment %q (have %s)",
		name, strings.Join(Names(), ", "))
}

// --- the registry --------------------------------------------------

// Registry returns the scenario registry bound to this context: the
// paper experiments and harness extras in Names order, each a render
// step that pulls its workload suites and searches through the
// context's memos.
func (c *Context) Registry() *scenario.Registry {
	c.regOnce.Do(func() { c.reg = c.buildRegistry() })
	return c.reg
}

func (c *Context) buildRegistry() *scenario.Registry {
	r := scenario.NewRegistry()
	static := func(render func() string) func(context.Context) (string, error) {
		return func(context.Context) (string, error) { return render(), nil }
	}

	r.MustRegister(scenario.Definition{
		Name: "table1", Title: "Table I — baseline configuration",
		Render: static(func() string { return "Table I — " + ConfigTable(c.Baseline) }),
	})
	r.MustRegister(scenario.Definition{
		Name: "table2", Title: "Table II — Configuration A",
		Render: static(func() string { return "Table II — " + ConfigTable(c.ConfigA) }),
	})
	r.MustRegister(scenario.Definition{
		Name: "fig3", Title: "Figure 3 — stressmark vs SPEC CPU2006 proxies",
		Render: func(ctx context.Context) (string, error) {
			r, err := c.Fig3(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name: "fig4", Title: "Figure 4 — stressmark vs MiBench proxies",
		Render: func(ctx context.Context) (string, error) {
			r, err := c.Fig4(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name: "fig5", Title: "Figure 5 — GA knobs and convergence",
		Render: func(ctx context.Context) (string, error) {
			r, err := c.Fig5(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name: "fig6", Title: "Figure 6 — per-structure AVFs by suite",
		Render: func(ctx context.Context) (string, error) {
			r, err := c.Fig6(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name: "fig7", Title: "Figure 7 — workloads under RHC/EDR rates",
		Render: func(ctx context.Context) (string, error) {
			r, err := c.Fig7(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name: "fig8", Title: "Figure 8 — fault-rate adaptation",
		Render: func(ctx context.Context) (string, error) {
			r, err := c.Fig8(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name: "fig9", Title: "Figure 9 — Configuration A adaptation",
		Render: func(ctx context.Context) (string, error) {
			r, err := c.Fig9(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name: "table3", Title: "Table III — worst-case estimator comparison",
		Render: func(ctx context.Context) (string, error) {
			r, err := c.Table3(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name: "worstcase", Title: "§VI — instantaneous bound vs sustained stressmark",
		Render: func(ctx context.Context) (string, error) {
			r, err := c.WorstCase(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name: "powercontrast", Title: "§IV-B — power viruses are not AVF stressmarks",
		Render: func(ctx context.Context) (string, error) {
			r, err := c.PowerContrast(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name: "hvf", Title: "§VIII — HVF bounds vs measured AVF",
		Render: func(ctx context.Context) (string, error) {
			r, err := c.HVFStudy(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name:  "rootcause",
		Title: "Root-cause instruction analysis — baseline under uniform rates",
		Render: func(ctx context.Context) (string, error) {
			// The default view of the parametric rootcause:<config>:
			// <rates>:<trials> form. It shares the faultinject study's
			// memoised campaigns, so running both scenarios costs one
			// set of replays.
			st, err := c.FaultInjection(ctx, "baseline", "uniform", defaultInjectTrials)
			if err != nil {
				return "", err
			}
			return st.RootCauseReport(), nil
		},
	})
	return r
}

// defaultInjectTrials sizes the default fault-injection campaigns (the
// registered rootcause experiment and the short parametric forms).
const defaultInjectTrials = 1000

// lookup resolves a scenario name: registered experiments first, then
// the parametric forms; unknown names keep the historical descriptive
// error.
func (c *Context) lookup(name string) (scenario.Definition, error) {
	if d, err := c.Registry().Lookup(name); err == nil {
		return d, nil
	}
	if d, ok := c.parametricScenario(name); ok {
		return d, nil
	}
	return scenario.Definition{}, unknownExperiment(name)
}

func render(r fmt.Stringer, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.String(), nil
}

// --- execution -----------------------------------------------------

// runDefs renders defs concurrently, one sched.Each item per
// definition, and returns each rendered report in input order. Renders
// are deliberately not bounded by Parallelism: a render spends most of
// its life waiting on a study another render is computing (fig4 on
// fig3's search), so a bounded pool would serialise the portfolio. The
// flights (wl/sm/pv/fi) dedup the studies renders share, and CPU stays
// bounded by the fan-outs inside them — GA evaluations, suite
// simulations and campaign slices — each at Parallelism.
func (c *Context) runDefs(ctx context.Context, defs []scenario.Definition) ([]string, error) {
	outs := make([]string, len(defs))
	err := sched.Each(ctx, len(defs), len(defs), func(ctx context.Context, i int) error {
		s, err := defs[i].Render(ctx)
		if err != nil {
			// The scenario name is the user-facing error context (the
			// historical "fig5: ..." shape).
			return fmt.Errorf("%s: %w", defs[i].Name, err)
		}
		outs[i] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// Run executes one named experiment and returns its rendered report.
func (c *Context) Run(ctx context.Context, name string) (string, error) {
	d, err := c.lookup(name)
	if err != nil {
		return "", err
	}
	outs, err := c.runDefs(ctx, []scenario.Definition{d})
	if err != nil {
		return "", err
	}
	return outs[0], nil
}

// RunScenarios resolves names, renders them concurrently and returns
// the combined report, assembled in input order — byte-identical to
// running the same names sequentially, whatever order the renders
// finished in. On any error the combined report is
// empty.
func (c *Context) RunScenarios(ctx context.Context, names []string) (string, error) {
	defs := make([]scenario.Definition, len(names))
	for i, n := range names {
		d, err := c.lookup(n)
		if err != nil {
			return "", err
		}
		defs[i] = d
	}
	outs, err := c.runDefs(ctx, defs)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, s := range outs {
		fmt.Fprintf(&b, "%s\n%s\n%s\n\n", strings.Repeat("=", 72), s, strings.Repeat("=", 72))
	}
	return b.String(), nil
}

// RunAll executes every experiment and returns the combined report.
func (c *Context) RunAll(ctx context.Context) (string, error) {
	return c.RunScenarios(ctx, Names())
}
