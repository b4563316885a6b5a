package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"avfstress/internal/scenario"
	"avfstress/internal/sched"
)

// renderFunc produces one scenario's report, pulling the workload
// suites, searches and injection studies it needs through c's memos; it
// must honour ctx cancellation.
type renderFunc func(c *Context, ctx context.Context) (string, error)

// registered is the scenario table: the paper figures/tables in paper
// order, then the harness extras (worst-case bound, power contrast, HVF
// bounds, root-cause attribution).
var registered = []struct {
	name   string
	render renderFunc
}{
	{"table1", func(c *Context, _ context.Context) (string, error) {
		return "Table I — " + ConfigTable(c.Baseline), nil
	}},
	{"table2", func(c *Context, _ context.Context) (string, error) {
		return "Table II — " + ConfigTable(c.ConfigA), nil
	}},
	{"fig3", stringer((*Context).Fig3)},
	{"fig4", stringer((*Context).Fig4)},
	{"fig5", stringer((*Context).Fig5)},
	{"fig6", stringer((*Context).Fig6)},
	{"fig7", stringer((*Context).Fig7)},
	{"fig8", stringer((*Context).Fig8)},
	{"fig9", stringer((*Context).Fig9)},
	{"table3", stringer((*Context).Table3)},
	{"worstcase", stringer((*Context).WorstCase)},
	{"powercontrast", stringer((*Context).PowerContrast)},
	{"hvf", stringer((*Context).HVFStudy)},
	// The default view of the parametric rootcause:<config>:<rates>:
	// <trials> form.
	{"rootcause", injectionView("rootcause", "baseline", "uniform", defaultInjectTrials)},
}

// defaultInjectTrials sizes the default fault-injection campaigns (the
// registered rootcause experiment and the short parametric forms).
const defaultInjectTrials = 1000

// Names lists the runnable experiments: the paper figures/tables in
// paper order, then the harness extras.
func Names() []string {
	names := make([]string, len(registered))
	for i, e := range registered {
		names[i] = e.name
	}
	return names
}

func unknownExperiment(name string) error {
	return fmt.Errorf("experiments: unknown experiment %q (have %s)",
		name, strings.Join(Names(), ", "))
}

// stringer adapts an experiment method to a renderFunc.
func stringer[R fmt.Stringer](run func(*Context, context.Context) (R, error)) renderFunc {
	return func(c *Context, ctx context.Context) (string, error) {
		r, err := run(c, ctx)
		if err != nil {
			return "", err
		}
		return r.String(), nil
	}
}

// injectionView renders the faultinject or rootcause view of one
// injection study. Both views share the study's memoised campaigns, so
// requesting both costs one set of replays.
func injectionView(kind, config, rates string, trials int) renderFunc {
	return func(c *Context, ctx context.Context) (string, error) {
		st, err := c.FaultInjection(ctx, config, rates, trials)
		if err != nil {
			return "", err
		}
		if kind == "rootcause" {
			return st.RootCauseReport(), nil
		}
		return st.String(), nil
	}
}

// scenarioRender maps a canonical scenario name to its render step. It
// is the one parser of scenario names: a registered name resolves
// through the registered table; a parametric name
//
//	stressmark:<config>:<rates>
//	workloads:<config>:<suite>
//	faultinject:<config>:<rates>:<trials>
//	rootcause:<config>:<rates>:<trials>
//
// has its arguments validated here, while its configuration is resolved
// at render time at the rendering Context's scale.
func scenarioRender(name string) (renderFunc, error) {
	for _, e := range registered {
		if e.name == name {
			return e.render, nil
		}
	}
	parts := strings.Split(name, ":")
	var render renderFunc
	switch kind := parts[0]; {
	case len(parts) == 3 && kind == "stressmark":
		config, ratesName := parts[1], parts[2]
		rates, err := ResolveRates(ratesName)
		if err != nil {
			return nil, err
		}
		render = func(c *Context, ctx context.Context) (string, error) {
			cfg, err := ResolveConfig(config, c.Opts.Scale)
			if err != nil {
				return "", err
			}
			sm, err := c.Stressmark(ctx, SearchKeyFor(config, ratesName), cfg, rates)
			if err != nil {
				return "", err
			}
			return renderStressmark(sm, cfg, rates, orDefault(ratesName, "uniform")), nil
		}
	case len(parts) == 3 && kind == "workloads":
		config, suiteName := parts[1], parts[2]
		suites, err := resolveSuites(suiteName)
		if err != nil {
			return nil, err
		}
		render = func(c *Context, ctx context.Context) (string, error) {
			cfg, err := ResolveConfig(config, c.Opts.Scale)
			if err != nil {
				return "", err
			}
			return c.renderWorkloads(ctx, cfg, suites, orDefault(suiteName, "all"))
		}
	case len(parts) == 4 && (kind == "faultinject" || kind == "rootcause"):
		if _, err := ResolveRates(parts[2]); err != nil {
			return nil, err
		}
		trials, err := strconv.Atoi(parts[3])
		if err != nil || trials <= 0 || trials > scenario.MaxInjectTrials {
			return nil, fmt.Errorf("experiments: %s trial count %q must be an integer in 1..%d",
				kind, parts[3], scenario.MaxInjectTrials)
		}
		render = injectionView(kind, parts[1], parts[2], trials)
	default:
		return nil, unknownExperiment(name)
	}
	if _, err := ResolveConfig(parts[1], 0); err != nil {
		return nil, err
	}
	return render, nil
}

// --- execution -----------------------------------------------------

// runNames renders names concurrently, one sched.Each item per name,
// and returns each rendered report in input order. Every name is
// resolved before anything renders. Renders are deliberately not
// bounded by Parallelism: a render spends most of its life waiting on a
// study another render is computing (fig4 on fig3's search), so a
// bounded pool would serialise the portfolio. The flights (wl/sm/pv/fi)
// dedup the studies renders share, and CPU stays bounded by the
// fan-outs inside them — GA evaluations, suite simulations and campaign
// slices — each at Parallelism.
func (c *Context) runNames(ctx context.Context, names []string) ([]string, error) {
	renders := make([]renderFunc, len(names))
	for i, n := range names {
		r, err := scenarioRender(n)
		if err != nil {
			return nil, err
		}
		renders[i] = r
	}
	outs := make([]string, len(names))
	err := sched.Each(ctx, len(names), len(names), func(ctx context.Context, i int) error {
		s, err := renders[i](c, ctx)
		if err != nil {
			// The scenario name is the user-facing error context (the
			// historical "fig5: ..." shape).
			return fmt.Errorf("%s: %w", names[i], err)
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
	outs, err := c.runNames(ctx, []string{name})
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
	outs, err := c.runNames(ctx, names)
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
