package inject

// Static target pruning (DESIGN.md §12). The pruner intersects sampled
// fault targets with the statically proven dead subset of the bit-cycle
// space, built from two inputs:
//
//   - the liveness summary's occupancy caps and free-list depth bound
//     (pure static facts of the program and core geometry): queue and
//     functional-unit entries at or beyond a cap never hold an
//     occupant, and physical registers below the free-list watermark
//     are never written — faults there are masked at every cycle;
//
//   - the golden run's recorded register-file dead intervals
//     (GoldenInfo.RFDead): cycle ranges during which a physical slot
//     holds a value of a statically dead definition, whose fate watch
//     can only ever resolve masked.
//
// Pruned targets are classified masked analytically, with zero
// replays. The pruner also computes each structure's exact dead
// fraction of the bit-cycle space — integer counting, so warm and cold
// campaigns agree byte-for-byte — which scales the stratum estimator
// (replays sample the live subspace only) and tightens the static ACE
// upper bound to 1 minus the dead fraction.

import (
	"sort"

	"avfstress/internal/isa"
	"avfstress/internal/liveness"
	"avfstress/internal/pipe"
	"avfstress/internal/uarch"
)

// ivl is a half-open cycle interval [start, end).
type ivl struct{ start, end int64 }

type pruner struct {
	entryBits [uarch.NumStructures]uint64
	entryCap  [uarch.NumStructures]int64 // first provably empty entry; -1 = none
	rfStatic  []bool                     // per physical slot: never written
	rfIv      [][]ivl                    // per slot: sorted recorded dead intervals

	// staticFrac is the exact dead fraction of each structure's
	// bit-cycle space; prunedBC/totalBC the integer counts behind it.
	staticFrac [uarch.NumStructures]float64
	prunedBC   [uarch.NumStructures]uint64
	totalBC    [uarch.NumStructures]uint64
}

func newPruner(cfg uarch.Config, sum *liveness.Summary, info pipe.GoldenInfo) *pruner {
	pr := &pruner{}
	core := cfg.Core
	cycles := uint64(info.Cycles)
	for s := uarch.Structure(0); s < uarch.NumStructures; s++ {
		pr.entryCap[s] = -1
		pr.totalBC[s] = uarch.Bits(cfg, s) * cycles
	}
	capped := func(s uarch.Structure, entries, entryBits, cap int) {
		pr.entryBits[s] = uint64(entryBits)
		if cap < entries {
			pr.entryCap[s] = int64(cap)
			pr.prunedBC[s] = uint64(entries-cap) * uint64(entryBits) * cycles
		}
	}
	capped(uarch.IQ, core.IQEntries, core.IQEntryBits, sum.IQCap)
	capped(uarch.LQTag, core.LQEntries, core.LSQEntryBits/2, sum.LQCap)
	capped(uarch.LQData, core.LQEntries, core.LSQEntryBits/2, sum.LQCap)
	capped(uarch.SQTag, core.SQEntries, core.LSQEntryBits/2, sum.SQCap)
	capped(uarch.SQData, core.SQEntries, core.LSQEntryBits/2, sum.SQCap)
	capped(uarch.FU, core.NumALUs*core.ALULatency+core.NumMuls*core.MulLatency,
		core.RegBits, sum.FUCap)

	// Register file: the never-popped free-list bottom (power-on free
	// list holds physical 31..PhysRegs-1 ascending, popped LIFO from
	// the top, so the first FreeRFSlots above the architected range
	// are never reached)...
	pr.entryBits[uarch.RF] = uint64(core.RegBits)
	pr.rfStatic = make([]bool, core.PhysRegs)
	for i := 0; i < sum.FreeRFSlots; i++ {
		pr.rfStatic[isa.NumArchRegs-1+i] = true
	}
	rfBC := uint64(sum.FreeRFSlots) * uint64(core.RegBits) * cycles
	// ...plus the recorded dead occupancy intervals, clipped to the
	// sampled window. Per-slot interval order is chronological by
	// construction (occupancies of one slot are sequential), so the
	// lists are search-ready as recorded. Counting each slot's intervals
	// first carves the lists from one backing array instead of growing
	// each by append.
	counts := make([]int, core.PhysRegs)
	for _, di := range info.RFDead {
		if int(di.Slot) < core.PhysRegs {
			counts[di.Slot]++
		}
	}
	pr.rfIv = make([][]ivl, core.PhysRegs)
	backing := make([]ivl, len(info.RFDead))
	for slot, n := range counts {
		pr.rfIv[slot], backing = backing[:0:n], backing[n:]
	}
	wStart, wEnd := info.WindowStart, info.WindowStart+info.Cycles
	for _, di := range info.RFDead {
		start, end := di.Start, di.End
		if end < 0 {
			end = wEnd // open at end of run: dead through the window
		}
		if start < wStart {
			start = wStart
		}
		if end > wEnd {
			end = wEnd
		}
		if start >= end || int(di.Slot) >= core.PhysRegs {
			continue
		}
		pr.rfIv[di.Slot] = append(pr.rfIv[di.Slot], ivl{start, end})
		rfBC += uint64(end-start) * uint64(core.RegBits)
	}
	pr.prunedBC[uarch.RF] = rfBC

	for s := range pr.staticFrac {
		if pr.totalBC[s] > 0 {
			pr.staticFrac[s] = float64(pr.prunedBC[s]) / float64(pr.totalBC[s])
		}
	}
	return pr
}

// bound returns the tightened static ACE upper bound for a structure:
// the all-bits-ACE bound 1.0 minus the statically proven dead
// fraction. Sound by construction: dead cells contribute zero to the
// ACE accounting (never-written slots are skipped by closeReg, dead
// values have empty write→last-read spans, capped entries never hold
// residency), so the dynamic AVF can never exceed it.
func (pr *pruner) bound(s uarch.Structure) float64 {
	return 1 - pr.staticFrac[s]
}

// pruned reports whether a fault target is statically proven masked.
func (pr *pruner) pruned(f pipe.Fault) bool {
	if f.Structure == uarch.RF {
		slot := f.Bit / pr.entryBits[uarch.RF]
		if pr.rfStatic[slot] {
			return true
		}
		ivs := pr.rfIv[slot]
		i := sort.Search(len(ivs), func(i int) bool { return ivs[i].start > f.Cycle }) - 1
		return i >= 0 && f.Cycle < ivs[i].end
	}
	if cap := pr.entryCap[f.Structure]; cap >= 0 {
		return int64(f.Bit/pr.entryBits[f.Structure]) >= cap
	}
	return false
}
