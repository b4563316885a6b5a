// Package analysis implements the paper's alternative worst-case SER
// estimators, used in §VI ("back of the envelope" instantaneous maximum)
// and §VII / Table III (best individual program, sum of highest
// per-structure SERs, sum of raw circuit rates), so the stressmark can be
// compared against each of them.
package analysis

import (
	"fmt"
	"strings"

	"avfstress/internal/avf"
	"avfstress/internal/uarch"
)

// WorstCaseBreakdown is the §VI instantaneous-occupancy bound: the most
// vulnerable plausible single-cycle state of the queueing structures in
// the shadow of an L2 miss.
type WorstCaseBreakdown struct {
	// Entries assumed occupied with ACE state at the worst instant.
	ROBEntries int
	IQEntries  int
	LQEntries  int
	SQEntries  int
	// ACE bits at that instant and the normalising total.
	ACEBits   uint64
	TotalBits uint64
}

// Value returns the normalised instantaneous worst case in units/bit.
func (w WorstCaseBreakdown) Value() float64 {
	if w.TotalBits == 0 {
		return 0
	}
	return float64(w.ACEBits) / float64(w.TotalBits)
}

// String renders the WorstCaseBreakdown as its paper-style report.
func (w WorstCaseBreakdown) String() string {
	return fmt.Sprintf(
		"instantaneous worst case: ROB=%d IQ=%d LQ=%d SQ=%d FU=0 → %d/%d bits = %.3f units/bit",
		w.ROBEntries, w.IQEntries, w.LQEntries, w.SQEntries, w.ACEBits, w.TotalBits, w.Value())
}

// InstantaneousWorstCase reproduces the paper's §VI calculation for the
// queueing structures: in the shadow of a blocking L2 miss the ROB is
// full, the LQ and SQ hold as many of those instructions as they can,
// the IQ holds the remainder (capped at its size), and the function
// units are idle. For the baseline this distributes 80 ROB entries as
// 32 LQ + 32 SQ + 16 IQ, exactly as in the paper. Only the blocking miss
// itself lacks its data ("the LQ data array corresponding to an issued
// load contains ACE bits only after the data has been brought from the
// memory hierarchy"); the remaining LQ entries are completed hit loads
// waiting behind it, so their data arrays are ACE.
func InstantaneousWorstCase(cfg uarch.Config) WorstCaseBreakdown {
	core := cfg.Core
	w := WorstCaseBreakdown{ROBEntries: core.ROBEntries}
	rest := core.ROBEntries
	w.LQEntries = min(core.LQEntries, rest)
	rest -= w.LQEntries
	w.SQEntries = min(core.SQEntries, rest)
	rest -= w.SQEntries
	w.IQEntries = min(core.IQEntries, rest)

	half := uint64(core.LSQEntryBits) / 2
	lqData := uint64(0)
	if w.LQEntries > 0 {
		lqData = uint64(w.LQEntries-1) * half // all but the blocking miss
	}
	w.ACEBits = uint64(w.ROBEntries)*uint64(core.ROBEntryBits) +
		uint64(w.IQEntries)*uint64(core.IQEntryBits) +
		uint64(w.LQEntries)*half + lqData +
		uint64(w.SQEntries)*uint64(core.LSQEntryBits)
	for _, s := range uarch.QueueStructures {
		w.TotalBits += uarch.Bits(cfg, s)
	}
	return w
}

// Best returns the workload result with the highest class SER, the
// paper's "Best Individual Program" estimator.
func Best(results []*avf.Result, cfg uarch.Config, rates uarch.FaultRates, c avf.Class) (*avf.Result, float64) {
	var best *avf.Result
	bestSER := -1.0
	for _, r := range results {
		if s := r.SER(cfg, rates, c); s > bestSER {
			best, bestSER = r, s
		}
	}
	return best, bestSER
}

// SumOfHighestPerStructure computes the paper's "Sum of highest
// per-structure SER" estimator over a class: for each member structure,
// take the highest AVF observed across all workloads, derate the
// structure's raw rate with it, sum, and normalise by the class bits.
// The paper shows this estimator is fundamentally unsound (it composes
// states no single program can realise, yet can still undershoot).
func SumOfHighestPerStructure(results []*avf.Result, cfg uarch.Config, rates uarch.FaultRates, c avf.Class) float64 {
	var num, bits float64
	for _, s := range c.Structures() {
		maxAVF := 0.0
		for _, r := range results {
			if r.AVF[s] > maxAVF {
				maxAVF = r.AVF[s]
			}
		}
		num += maxAVF * float64(uarch.Bits(cfg, s)) * rates[s]
		bits += float64(uarch.Bits(cfg, s))
	}
	if bits == 0 {
		return 0
	}
	return num / bits
}

// SumOfRawRates is the most pessimistic estimator: no derating at all
// (AVF = 1 everywhere), i.e. the bit-weighted mean circuit rate of the
// class. The paper reports 1, 0.59 and 0.39 units/bit for the core under
// the Baseline, RHC and EDR rate sets.
func SumOfRawRates(cfg uarch.Config, rates uarch.FaultRates, c avf.Class) float64 {
	var num, bits float64
	for _, s := range c.Structures() {
		b := float64(uarch.Bits(cfg, s))
		num += b * rates[s]
		bits += b
	}
	if bits == 0 {
		return 0
	}
	return num / bits
}

// Coverage quantifies the SER coverage of a workload suite against a
// known worst case, formalising the paper's Figure 1 discussion.
type Coverage struct {
	Class     avf.Class
	Min, Max  float64 // workload-induced SER range
	Mean      float64
	WorstCase float64 // stressmark-established worst case
	BestName  string
}

// Gap returns the uncovered fraction between the highest
// workload-induced SER and the worst case: the safety margin (relative
// to the best workload) that would just reach the worst case.
func (c Coverage) Gap() float64 {
	if c.Max == 0 {
		return 0
	}
	return c.WorstCase/c.Max - 1
}

// String renders the Coverage as its paper-style report.
func (c Coverage) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: workloads span [%.3f, %.3f] (mean %.3f), worst case %.3f\n",
		c.Class, c.Min, c.Max, c.Mean, c.WorstCase)
	fmt.Fprintf(&b, "  highest workload: %s; required safety margin over it: %.0f%%\n",
		c.BestName, c.Gap()*100)
	return b.String()
}

// SuiteCoverage computes Coverage for a class over a workload population.
func SuiteCoverage(results []*avf.Result, cfg uarch.Config, rates uarch.FaultRates,
	c avf.Class, worstCase float64) Coverage {
	cov := Coverage{Class: c, WorstCase: worstCase, Min: -1}
	var sum float64
	for _, r := range results {
		s := r.SER(cfg, rates, c)
		sum += s
		if cov.Min < 0 || s < cov.Min {
			cov.Min = s
		}
		if s > cov.Max {
			cov.Max = s
			cov.BestName = r.Workload
		}
	}
	if len(results) > 0 {
		cov.Mean = sum / float64(len(results))
	}
	if cov.Min < 0 {
		cov.Min = 0
	}
	return cov
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
