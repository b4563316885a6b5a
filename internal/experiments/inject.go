package experiments

// The fault-injection validation experiment (DESIGN.md §9): Monte Carlo
// statistical fault injection is the standard cross-check for an
// ACE-based AVF estimator, so the faultinject scenario runs campaigns
// over a representative workload panel plus the evolved stressmark and
// reports injection-measured AVF beside ACE-based AVF, flagging any
// campaign whose 95% confidence interval fails to contain the ACE
// value.

import (
	"context"
	"fmt"
	"strings"

	"avfstress/internal/analysis"
	"avfstress/internal/inject"
	"avfstress/internal/pipe"
	"avfstress/internal/prog"
	"avfstress/internal/report"
	"avfstress/internal/sched"
	"avfstress/internal/uarch"
	"avfstress/internal/workloads"
)

// injectionPanel lists a study's campaigns in report order: one
// representative workload proxy per suite, then the stressmark. Kept
// small deliberately — each entry costs a golden run and a replay
// carrying Trials faults — while still spanning the three workload
// families' occupancy regimes.
var injectionPanel = []string{"403.gcc", "433.milc", "qsort", "stressmark"}

// InjectionStudy is the faultinject scenario's result: one campaign per
// panel workload plus one on the stressmark, all on one configuration
// and fault-rate set.
type InjectionStudy struct {
	Config    uarch.Config
	RatesName string
	Trials    int
	Campaigns []*inject.Result // panel order, stressmark last
}

// String renders the cross-campaign summary (bit-weighted, so the
// outcome counts reconcile with the AVF column), the rate-weighted
// comparison lines, and the stressmark campaign's per-structure
// detail.
func (s *InjectionStudy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault-injection validation — %s under %s rates, %d trials per campaign\n\n",
		s.Config.Name, s.RatesName, s.Trials)
	rows := make([]report.InjectionRow, 0, len(s.Campaigns))
	for _, c := range s.Campaigns {
		rows = append(rows, report.InjectionRow{
			Label: c.Workload, Bits: c.TotalBits(), Trials: c.Trials,
			SDC: c.SDC, Detected: c.Detected, Masked: c.Masked, Pruned: c.Pruned,
			AVF: c.AVF, Lo: c.CI.Lo, Hi: c.CI.Hi, ACE: c.ACEAVF,
		})
	}
	b.WriteString(report.InjectionTable("bit-weighted AVF, injection vs ACE accounting:", rows))
	b.WriteString("\n")
	for _, c := range s.Campaigns {
		fmt.Fprintf(&b, "%-32s %s\n", c.Workload, c.DeratedLine())
	}
	if n := len(s.Campaigns); n > 0 {
		fmt.Fprintf(&b, "\nstressmark campaign, per structure:\n%s", s.Campaigns[n-1])
	}
	return b.String()
}

// RootCauseReport renders the study's attribution view: per campaign,
// the root-cause instruction and instruction-class tables plus the SDC
// density diagnostic, headed by the configuration's §VI instantaneous
// worst-case bound so the ranking reads against the occupancy ceiling
// the stressmark chases. The campaigns are the same memoised results as
// String() — attribution adds zero extra replays.
func (s *InjectionStudy) RootCauseReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Root-cause instruction analysis — %s under %s rates, %d trials per campaign\n\n",
		s.Config.Name, s.RatesName, s.Trials)
	fmt.Fprintf(&b, "%s\n\n", analysis.InstantaneousWorstCase(s.Config))
	for _, c := range s.Campaigns {
		if c.RootCause == nil {
			fmt.Fprintf(&b, "%s: campaign carries no attribution tables\n\n", c.Workload)
			continue
		}
		fmt.Fprintf(&b, "%s — SDC density %.4f per corrupting trial\n%s\n",
			c.Workload, c.RootCause.SDCDensity(), c.RootCause)
	}
	return strings.TrimRight(b.String(), "\n") + "\n"
}

// injectBudget sizes campaign simulations: the workload budget scaled
// down 8× — every trial replays the run, so campaigns trade window
// length for trial count. The golden run and all replays share it.
func (c *Context) injectBudget() pipe.RunConfig {
	rc := c.workloadBudget()
	rc.MaxInstructions /= 8
	rc.WarmupInstructions /= 8
	return rc
}

// FaultInjection runs (once, memoised) the injection validation study
// for the named configuration and rate set: a campaign of trials
// replays per panel workload and for the stressmark. The stressmark
// search is the suite's shared memoised search. The four campaigns run
// as sched.Each items, each one golden run plus one replay of all its
// faults memoised in the shared simulation store, and land in their
// panel slots, so the report keeps panel order at any Parallelism.
func (c *Context) FaultInjection(ctx context.Context, configName, ratesName string, trials int) (*InjectionStudy, error) {
	cfg, err := ResolveConfig(configName, c.Opts.Scale)
	if err != nil {
		return nil, err
	}
	rates, err := ResolveRates(ratesName)
	if err != nil {
		return nil, err
	}
	if trials <= 0 {
		trials = defaultInjectTrials
	}
	key := fmt.Sprintf("fi\x00%s\x00%s\x00%d", cfg.Fingerprint(), rates.Fingerprint(), trials)
	return c.fi.Do(key, func() (*InjectionStudy, error) {
		rc := c.injectBudget()
		study := &InjectionStudy{Config: cfg, RatesName: orDefault(ratesName, "uniform"), Trials: trials,
			Campaigns: make([]*inject.Result, len(injectionPanel))}
		err := sched.Each(ctx, len(injectionPanel), c.Opts.Parallelism, func(ctx context.Context, i int) error {
			name := injectionPanel[i]
			var p *prog.Program
			if name == "stressmark" {
				sm, err := c.Stressmark(ctx, SearchKeyFor(configName, ratesName), cfg, rates)
				if err != nil {
					return err
				}
				p = sm.Program
			} else {
				pf, err := workloads.ByName(name)
				if err != nil {
					return err
				}
				if p, err = pf.Build(cfg, c.Opts.Seed); err != nil {
					return err
				}
			}
			res, err := inject.Run(ctx, inject.Options{
				Config: cfg, Program: p, Run: rc, Rates: rates,
				Trials: trials, Seed: c.Opts.Seed, Cache: c.cache,
				RootCause: true,
			})
			if err != nil {
				return fmt.Errorf("experiments: injection campaign %s: %w", name, err)
			}
			study.Campaigns[i] = res
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i, res := range study.Campaigns {
			c.logf("injection campaign %s: AVF %.4f [%.4f, %.4f] vs ACE %.4f",
				injectionPanel[i], res.DeratedAVF, res.DeratedCI.Lo, res.DeratedCI.Hi, res.DeratedACE)
			c.logf("injection campaign %s: %s", injectionPanel[i], res.PruneLine())
		}
		return study, nil
	})
}
