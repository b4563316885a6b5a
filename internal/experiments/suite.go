package experiments

import (
	"context"
	"fmt"
	"strings"

	"avfstress/internal/scenario"
	"avfstress/internal/sched"
	"avfstress/internal/uarch"
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

// --- declared jobs -------------------------------------------------

// workloadsJob declares the 33-proxy suite simulation on cfg. The key is
// the configuration fingerprint, so every scenario needing the suite on
// one configuration shares a single job.
func (c *Context) workloadsJob(cfg uarch.Config) scenario.Job {
	return scenario.Job{
		Key: "wl\x00" + cfg.Fingerprint(),
		Run: func(ctx context.Context) error {
			_, err := c.Workloads(ctx, cfg)
			return err
		},
	}
}

// stressmarkJob declares one stressmark search (or reference
// evaluation), keyed exactly like the Stressmark memo so scenarios
// sharing a search share the job.
func (c *Context) stressmarkJob(key string, cfg uarch.Config, rates uarch.FaultRates) scenario.Job {
	return scenario.Job{
		Key: "sm\x00" + key + "\x00" + cfg.Fingerprint() + "\x00" + rates.Fingerprint(),
		Run: func(ctx context.Context) error {
			_, err := c.Stressmark(ctx, key, cfg, rates)
			return err
		},
	}
}

// powerVirusJob declares the §IV-B power-virus simulation.
func (c *Context) powerVirusJob() scenario.Job {
	return scenario.Job{
		Key: "pv\x00" + c.Baseline.Fingerprint(),
		Run: func(ctx context.Context) error {
			_, err := c.PowerVirus(ctx)
			return err
		},
	}
}

// --- the registry --------------------------------------------------

// Registry returns the scenario registry bound to this context: the 13
// paper experiments in paper order, each declaring the workload/search
// jobs it needs plus a render step (declared-jobs purity: rendering
// after the jobs have run triggers no further simulation).
func (c *Context) Registry() *scenario.Registry {
	c.regOnce.Do(func() { c.reg = c.buildRegistry() })
	return c.reg
}

func (c *Context) buildRegistry() *scenario.Registry {
	r := scenario.NewRegistry()
	uni := uarch.UniformRates(1)
	base := c.Baseline
	smBase := func() scenario.Job { return c.stressmarkJob("baseline", base, uni) }
	wlBase := func() scenario.Job { return c.workloadsJob(base) }
	none := func() []scenario.Job { return nil }
	static := func(render func() string) func(context.Context) (string, error) {
		return func(context.Context) (string, error) { return render(), nil }
	}

	r.MustRegister(scenario.Definition{
		Name: "table1", Title: "Table I — baseline configuration",
		Jobs:   none,
		Render: static(func() string { return "Table I — " + ConfigTable(c.Baseline) }),
	})
	r.MustRegister(scenario.Definition{
		Name: "table2", Title: "Table II — Configuration A",
		Jobs:   none,
		Render: static(func() string { return "Table II — " + ConfigTable(c.ConfigA) }),
	})
	r.MustRegister(scenario.Definition{
		Name: "fig3", Title: "Figure 3 — stressmark vs SPEC CPU2006 proxies",
		Jobs: func() []scenario.Job { return []scenario.Job{smBase(), wlBase()} },
		Render: func(ctx context.Context) (string, error) {
			r, err := c.Fig3(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name: "fig4", Title: "Figure 4 — stressmark vs MiBench proxies",
		Jobs: func() []scenario.Job { return []scenario.Job{smBase(), wlBase()} },
		Render: func(ctx context.Context) (string, error) {
			r, err := c.Fig4(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name: "fig5", Title: "Figure 5 — GA knobs and convergence",
		Jobs: func() []scenario.Job { return []scenario.Job{smBase()} },
		Render: func(ctx context.Context) (string, error) {
			r, err := c.Fig5(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name: "fig6", Title: "Figure 6 — per-structure AVFs by suite",
		Jobs: func() []scenario.Job { return []scenario.Job{smBase(), wlBase()} },
		Render: func(ctx context.Context) (string, error) {
			r, err := c.Fig6(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name: "fig7", Title: "Figure 7 — workloads under RHC/EDR rates",
		Jobs: func() []scenario.Job {
			return []scenario.Job{
				wlBase(),
				c.stressmarkJob("rhc", base, uarch.RHCRates()),
				c.stressmarkJob("edr", base, uarch.EDRRates()),
			}
		},
		Render: func(ctx context.Context) (string, error) {
			r, err := c.Fig7(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name: "fig8", Title: "Figure 8 — fault-rate adaptation",
		Jobs: func() []scenario.Job {
			return []scenario.Job{
				smBase(),
				c.stressmarkJob("rhc", base, uarch.RHCRates()),
				c.stressmarkJob("edr", base, uarch.EDRRates()),
			}
		},
		Render: func(ctx context.Context) (string, error) {
			r, err := c.Fig8(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name: "fig9", Title: "Figure 9 — Configuration A adaptation",
		Jobs: func() []scenario.Job {
			return []scenario.Job{smBase(), c.stressmarkJob("configA", c.ConfigA, uni)}
		},
		Render: func(ctx context.Context) (string, error) {
			r, err := c.Fig9(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name: "table3", Title: "Table III — worst-case estimator comparison",
		Jobs: func() []scenario.Job {
			return []scenario.Job{
				wlBase(),
				smBase(),
				c.stressmarkJob("rhc", base, uarch.RHCRates()),
				c.stressmarkJob("edr", base, uarch.EDRRates()),
			}
		},
		Render: func(ctx context.Context) (string, error) {
			r, err := c.Table3(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name: "worstcase", Title: "§VI — instantaneous bound vs sustained stressmark",
		Jobs: func() []scenario.Job { return []scenario.Job{smBase(), wlBase()} },
		Render: func(ctx context.Context) (string, error) {
			r, err := c.WorstCase(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name: "powercontrast", Title: "§IV-B — power viruses are not AVF stressmarks",
		Jobs: func() []scenario.Job {
			return []scenario.Job{smBase(), wlBase(), c.powerVirusJob()}
		},
		Render: func(ctx context.Context) (string, error) {
			r, err := c.PowerContrast(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name: "hvf", Title: "§VIII — HVF bounds vs measured AVF",
		Jobs: func() []scenario.Job { return []scenario.Job{smBase(), wlBase()} },
		Render: func(ctx context.Context) (string, error) {
			r, err := c.HVFStudy(ctx)
			return render(r, err)
		},
	})
	r.MustRegister(scenario.Definition{
		Name:  "rootcause",
		Title: "Root-cause instruction analysis — baseline under uniform rates",
		Jobs: func() []scenario.Job {
			// The default view of the parametric rootcause:<config>:
			// <rates>:<trials> form. It shares the faultinject study's
			// memoised campaigns, so running both scenarios costs one
			// set of replays.
			sm := smBase()
			return []scenario.Job{sm,
				c.faultInjectJob("baseline", "uniform", defaultInjectTrials, []string{sm.Key})}
		},
		Render: func(ctx context.Context) (string, error) {
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

// workers bounds concurrent scheduler jobs.
func (c *Context) workers() int {
	return c.Opts.Parallelism // 0 = GOMAXPROCS, resolved by sched
}

// runDefs schedules the combined job DAG of defs — shared jobs
// deduplicated by key, renders running as soon as their dependencies
// complete — and returns each definition's rendered report in input
// order.
func (c *Context) runDefs(ctx context.Context, defs []scenario.Definition) ([]string, error) {
	outs := make([]string, len(defs))
	var jobs []scenario.Job
	for i, d := range defs {
		var deps []string
		if d.Jobs != nil {
			for _, j := range d.Jobs() {
				jobs = append(jobs, j)
				deps = append(deps, j.Key)
			}
		}
		i, d := i, d
		jobs = append(jobs, scenario.Job{
			// The index suffix keeps render keys unique when one
			// scenario is requested twice.
			Key:  fmt.Sprintf("render\x00%d\x00%s", i, d.Name),
			Deps: deps,
			Run: func(ctx context.Context) error {
				s, err := d.Render(ctx)
				if err != nil {
					// The scenario name is the user-facing error
					// context (the historical "fig5: ..." shape);
					// declared-job errors are already
					// self-describing.
					return fmt.Errorf("%s: %w", d.Name, err)
				}
				outs[i] = s
				return nil
			},
		})
	}
	if err := sched.Run(ctx, jobs, sched.Options{
		Workers:    c.workers(),
		Retry:      c.Opts.Retry,
		OnRetry:    c.Opts.OnRetry,
		JobTimeout: c.Opts.JobTimeout,
	}); err != nil {
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

// RunScenarios resolves names, runs their combined job DAG concurrently
// and returns the combined report, assembled in input order — byte-
// identical to running the same names sequentially, whatever order the
// scheduler completed them in. On any error the combined report is
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
