package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"avfstress/internal/avf"
	"avfstress/internal/experiments"
	"avfstress/internal/scenario"
	"avfstress/internal/simcache"
	"avfstress/internal/uarch"
)

// The ledger records the simulated statistics of a run: exact counts
// and rates the simulator produces, none of them host time. The same
// inputs must give the same ledger, so a change meant only to speed up
// the simulator can show it left every entry identical.

type ledger struct {
	Digests     []string        `json:"digests"`
	Stressmarks []smEntry       `json:"stressmarks,omitempty"`
	Workloads   []suiteEntry    `json:"workloads,omitempty"`
	Campaigns   []campaignEntry `json:"campaigns,omitempty"`
	// Simulated and BlobMisses count the simulations and trial-blob
	// misses of a cold store: one per distinct key, whatever the
	// interleaving.
	Simulated  int64 `json:"simulated"`
	BlobMisses int64 `json:"blob_misses"`
}

// smEntry is a search's final evaluation. The search's evaluation
// count is left out: it varies between runs (see canonical).
type smEntry struct {
	Key    string `json:"key"`
	Instrs int64  `json:"instrs"`
	Cycles int64  `json:"cycles"`
}

type suiteEntry struct {
	Config       string  `json:"config"`
	Programs     int     `json:"programs"`
	Instrs       int64   `json:"instrs"`
	Cycles       int64   `json:"cycles"`
	DL1MissRate  float64 `json:"dl1_miss_rate"`
	L2MissRate   float64 `json:"l2_miss_rate"`
	DTLBMissRate float64 `json:"dtlb_miss_rate"`
}

type campaignEntry struct {
	Workload     string `json:"workload"`
	GoldenInstrs int64  `json:"golden_instrs"`
	GoldenCycles int64  `json:"golden_cycles"`
	GoldenDigest string `json:"golden_digest"`
	Trials       int    `json:"trials"`
	SDC          int    `json:"sdc"`
	DUE          int    `json:"due"`
	Masked       int    `json:"masked"`
	Pruned       int    `json:"pruned"`
}

// search names one stressmark search a spec's scenarios share.
type search struct {
	Key   string
	Cfg   uarch.Config
	Rates uarch.FaultRates
}

// study names one fault-injection study.
type study struct {
	Config, Rates string
	Trials        int
}

// workPlan lists the shared, memoised work behind a spec's scenarios:
// the searches, whether it simulates the baseline workload suite and
// the power virus, and its injection studies. The benchmark knows two
// spec shapes: the full default suite, in any order, and a
// faultinject/rootcause campaign (the only shape that sets
// InjectTrials). The traced run checks the plan is complete (rendering after
// it simulates nothing).
type workPlan struct {
	Searches   []search
	Workloads  bool
	PowerVirus bool
	Studies    []study
}

// suiteTrials is the trial budget of the registered rootcause
// experiment's study (the suite's one campaign set).
const suiteTrials = 1000

func planFor(c *experiments.Context, sp scenario.Spec) workPlan {
	uni := uarch.UniformRates(1)
	if sp.InjectTrials == 0 {
		return workPlan{
			Searches: []search{
				{"baseline", c.Baseline, uni},
				{"rhc", c.Baseline, uarch.RHCRates()},
				{"edr", c.Baseline, uarch.EDRRates()},
				{"configA", c.ConfigA, uni},
			},
			Workloads:  true,
			PowerVirus: true,
			Studies:    []study{{"baseline", "uniform", suiteTrials}},
		}
	}
	return workPlan{
		Searches: []search{{"baseline", c.Baseline, uni}},
		Studies:  []study{{"baseline", "uniform", sp.InjectTrials}},
	}
}

// buildLedger reads the simulated statistics back from the contexts'
// memoised results (no new simulation: the cold run computed them).
func buildLedger(ctx context.Context, cs []*experiments.Context, specs []scenario.Spec, store *simcache.Store) ledger {
	var l ledger
	for i, c := range cs {
		plan := planFor(c, specs[i])
		for _, s := range plan.Searches {
			if sm, err := c.Stressmark(ctx, s.Key, s.Cfg, s.Rates); err == nil {
				l.Stressmarks = append(l.Stressmarks, smEntry{Key: s.Key,
					Instrs: sm.Result.Instructions, Cycles: sm.Result.Cycles})
			}
		}
		if plan.Workloads {
			if rs, err := c.Workloads(ctx, c.Baseline); err == nil {
				l.Workloads = append(l.Workloads, suiteTotals(c.Baseline.Name, rs))
			}
		}
		for _, st := range plan.Studies {
			s, err := c.FaultInjection(ctx, st.Config, st.Rates, st.Trials)
			if err != nil {
				continue
			}
			for _, r := range s.Campaigns {
				l.Campaigns = append(l.Campaigns, campaignEntry{
					Workload: r.Workload, GoldenInstrs: r.Golden.Instructions, GoldenCycles: r.Golden.Cycles,
					GoldenDigest: fmt.Sprintf("%016x", r.GoldenDigest),
					Trials:       r.Trials, SDC: r.SDC, DUE: r.Detected, Masked: r.Masked, Pruned: r.Pruned,
				})
			}
		}
	}
	st := store.Stats()
	l.Simulated, l.BlobMisses = st.Simulated, st.BlobMisses
	return l
}

func suiteTotals(cfg string, rs []*avf.Result) suiteEntry {
	e := suiteEntry{Config: cfg, Programs: len(rs)}
	for _, r := range rs {
		e.Instrs += r.Instructions
		e.Cycles += r.Cycles
		e.DL1MissRate += r.DL1MissRate
		e.L2MissRate += r.L2MissRate
		e.DTLBMissRate += r.DTLBMissRate
	}
	if n := float64(len(rs)); n > 0 {
		e.DL1MissRate /= n
		e.L2MissRate /= n
		e.DTLBMissRate /= n
	}
	return e
}

// ledgerDiff describes the first difference between two ledgers ("" if
// identical).
func ledgerDiff(a, b ledger) string {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) == string(jb) {
		return ""
	}
	for i := 0; i < len(ja) && i < len(jb); i++ {
		if ja[i] != jb[i] {
			lo := max(0, i-60)
			return fmt.Sprintf("first difference at byte %d: …%s… vs …%s…",
				i, ja[lo:min(len(ja), i+40)], jb[lo:min(len(jb), i+40)])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(ja), len(jb))
}

// recordLedger writes a ledger to path and compares it with the ledger
// an earlier run of the same inputs left there. A difference means the
// simulated statistics moved between runs; it is reported, not failed,
// because a change to the model moves them legitimately.
func recordLedger(path string, l ledger) (drift string, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	if b, rerr := os.ReadFile(path); rerr == nil {
		var prev ledger
		if json.Unmarshal(b, &prev) == nil {
			drift = ledgerDiff(prev, l)
		}
	}
	b, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return drift, err
	}
	return drift, os.WriteFile(path, b, 0o644)
}
