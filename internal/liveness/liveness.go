// Package liveness is the static backward def-use bit-liveness pass
// over synthetic programs (DESIGN.md §12). Generated programs are
// small, fully known, and loop forever from the simulator's point of
// view, which makes them the ideal case for BEC-style bit-level
// liveness: the pass fixpoints per-instruction live-in register bit
// masks over the program's init·body^ω structure using the ISA's
// per-opcode bit-transfer functions (isa.SrcDemand), and derives from
// the same walk three families of facts the fault-injection campaign
// can exploit without any simulation:
//
//   - DeadDefs: static register definitions whose value is provably
//     never consumed by an ACE reader before redefinition. A fault in a
//     register-file slot holding such a value is masked by
//     construction: the replay's fate watch resolves on "read after the
//     injection cycle by an ACE instruction", and a dead definition has
//     no such reads at any cycle. Deadness here is deliberately
//     one-level, not transitive — an ACE reader whose own result is
//     dead still performs the read the replay observes — so the prune
//     verdict matches the replay's fault model exactly.
//
//   - Occupancy caps: every dynamic dispatch sequence is a contiguous
//     window of the init·body^ω fetch order (wrong-path fetch walks the
//     body cyclically from the mispredicted branch's successor, which
//     is the same successor the correct path takes), so sliding-window
//     maxima over that order bound how many issue-queue, load/store
//     queue and functional-unit slots can ever be simultaneously
//     occupied. Entries at or beyond a cap are empty at every cycle;
//     faults in them are masked analytically.
//
//   - A free-list depth bound: renaming pops physical registers
//     LIFO-style, so the bottom of the power-on free list deeper than
//     the maximum number of in-flight writers is never popped; those
//     physical registers are never written and every fault in them is
//     masked.
//
// The bit masks themselves (LiveIn) tighten the reporting-side static
// ACE bound and document which bits of which values matter; the prune
// filter in internal/inject only ever uses whole-value facts (DeadDefs
// and the caps), because the pipeline's fault model is value-level.
package liveness

import (
	"fmt"
	"strings"

	"avfstress/internal/isa"
	"avfstress/internal/prog"
	"avfstress/internal/uarch"
)

// RegMasks is one live-in snapshot: a live-bit mask per architected
// register at a program point.
type RegMasks [isa.NumArchRegs]uint64

// Summary is the result of one static liveness analysis.
type Summary struct {
	// DeadDefs marks static instructions (by identity, pointing into
	// the program's Init/Body slices) whose destination value is never
	// read by an ACE instruction before redefinition, or whose own
	// result is UnACE. The pipeline's golden-run recorder uses this set
	// to map dead definitions onto physical-register occupancy
	// intervals.
	DeadDefs map[*isa.Instr]bool

	// LiveIn holds, for every static instruction (Init first, then
	// Body), the fixpointed live-in bit mask per architected register.
	LiveIn []RegMasks

	// Sliding-window maxima over the init·body^ω dispatch order, window
	// size ROBEntries: no dynamic snapshot of the ROB can contain more
	// instructions of each class than these.
	MaxWriters, MaxNonNop, MaxLoads, MaxStores, MaxAdds, MaxMuls int

	// Occupancy caps (entries that can ever be simultaneously live).
	IQCap, LQCap, SQCap, FUCap int

	// FreeRFSlots is the free-list depth bound: physical registers at
	// the bottom of the power-on free list that renaming can never pop.
	FreeRFSlots int

	deadDefCount int
	defCount     int
}

// reads reports whether in reads architected register r as a source.
func reads(in *isa.Instr, r isa.Reg) bool {
	switch in.Op {
	case isa.OpAdd, isa.OpMul:
		return in.Src1 == r || (in.RegReg && in.Src2 == r)
	case isa.OpLoad, isa.OpBranch:
		return in.Src1 == r
	case isa.OpStore:
		return in.Src1 == r || in.Src2 == r
	}
	return false
}

// Analyze runs the static pass for program p on core geometry core.
func Analyze(p *prog.Program, core uarch.CoreConfig) *Summary {
	s := &Summary{DeadDefs: map[*isa.Instr]bool{}}
	if len(p.Body) == 0 {
		// Degenerate program: the simulator rejects it before any prune
		// fact could be consulted, so report no-cap conservative facts
		// rather than zero caps (which would prune everything).
		s.IQCap, s.LQCap, s.SQCap = core.IQEntries, core.LQEntries, core.SQEntries
		s.FUCap = core.NumALUs*core.ALULatency + core.NumMuls*core.MulLatency
		return s
	}
	s.analyzeDeadDefs(p)
	s.analyzeWindows(p, core)
	s.analyzeBitMasks(p)
	return s
}

// analyzeDeadDefs computes the one-level dead definition set: a def is
// dead iff its own result is UnACE (the replay masks faults in un-ACE
// values immediately), or no non-UnACE instruction reads the defined
// register between the def and its next redefinition along the
// init·body^ω execution order. The redefining instruction's own source
// reads happen before its write (rename reads the map before
// allocating), so they count as readers of the current def.
func (s *Summary) analyzeDeadDefs(p *prog.Program) {
	// decided reports whether successor nxt ends the walk from a def of
	// r, and dead the verdict when it does.
	decided := func(nxt *isa.Instr, r isa.Reg) (stop, dead bool) {
		if reads(nxt, r) && !nxt.UnACE && nxt.Op != isa.OpNop {
			return true, false
		}
		if isa.WritesDest(nxt) && nxt.Dest == r {
			return true, true // redefined with no ACE reader in between
		}
		return false, false
	}
	// deadAfter walks execution order — init in sequence, then body
	// cyclically forever — by index. It scans at most the rest of init
	// plus one full body cycle past the def: after that the walk
	// revisits only body positions already examined.
	deadAfter := func(sec []isa.Instr, idx int) bool {
		r := sec[idx].Dest
		start := 0 // first body position on the walk
		if len(p.Init) > 0 && &sec[0] == &p.Init[0] {
			for i := idx + 1; i < len(p.Init); i++ {
				if stop, dead := decided(&p.Init[i], r); stop {
					return dead
				}
			}
		} else {
			start = idx + 1
		}
		n := len(p.Body)
		for k := 0; k < n; k++ {
			if stop, dead := decided(&p.Body[(start+k)%n], r); stop {
				return dead
			}
		}
		// No redefinition found. For a body def that means the def
		// itself redefines next iteration and the full cycle had no
		// reader; for an init def it means the body never touches the
		// register at all. Either way: dead.
		return true
	}
	scan := func(sec []isa.Instr) {
		for i := range sec {
			in := &sec[i]
			if !isa.WritesDest(in) {
				continue
			}
			s.defCount++
			if in.UnACE || deadAfter(sec, i) {
				s.DeadDefs[in] = true
				s.deadDefCount++
			}
		}
	}
	if len(p.Init) > 0 {
		scan(p.Init)
	}
	scan(p.Body)
}

// analyzeWindows computes sliding-window class maxima over the
// init·body^ω dispatch order with window size ROBEntries, and derives
// the occupancy caps and the free-list depth bound.
func (s *Summary) analyzeWindows(p *prog.Program, core uarch.CoreConfig) {
	// Materialise init plus enough body repeats that every cyclic
	// window phase appears.
	reps := core.ROBEntries/len(p.Body) + 2
	ext := make([]*isa.Instr, 0, len(p.Init)+reps*len(p.Body))
	for i := range p.Init {
		ext = append(ext, &p.Init[i])
	}
	for k := 0; k < reps; k++ {
		for i := range p.Body {
			ext = append(ext, &p.Body[i])
		}
	}
	win := core.ROBEntries
	if win > len(ext) {
		win = len(ext)
	}
	var writers, nonNop, loads, stores, adds, muls int
	count := func(in *isa.Instr, d int) {
		if isa.WritesDest(in) {
			writers += d
		}
		if in.Op != isa.OpNop {
			nonNop += d
		}
		switch in.Op {
		case isa.OpLoad:
			loads += d
		case isa.OpStore:
			stores += d
		case isa.OpAdd:
			adds += d
		case isa.OpMul:
			muls += d
		}
	}
	for i := 0; i < len(ext); i++ {
		count(ext[i], +1)
		if i >= win {
			count(ext[i-win], -1)
		}
		if i >= win-1 {
			s.MaxWriters = max(s.MaxWriters, writers)
			s.MaxNonNop = max(s.MaxNonNop, nonNop)
			s.MaxLoads = max(s.MaxLoads, loads)
			s.MaxStores = max(s.MaxStores, stores)
			s.MaxAdds = max(s.MaxAdds, adds)
			s.MaxMuls = max(s.MaxMuls, muls)
		}
	}
	s.IQCap = min(core.IQEntries, s.MaxNonNop)
	s.LQCap = min(core.LQEntries, s.MaxLoads)
	s.SQCap = min(core.SQEntries, s.MaxStores)
	// Concurrent executing arithmetic is bounded both by the window
	// class count and by issue bandwidth times latency per unit class.
	capAdd := min(core.NumALUs*core.ALULatency, s.MaxAdds)
	capMul := min(core.NumMuls*core.MulLatency, s.MaxMuls)
	s.FUCap = capAdd + capMul
	// Renaming pops the free list LIFO; the maximum pop depth is the
	// maximum number of simultaneously in-flight writers, itself
	// bounded by the ROB-window writer count. Anything deeper in the
	// power-on free list is never popped, hence never written.
	if free := core.PhysRegs - (isa.NumArchRegs - 1); free > s.MaxWriters {
		s.FreeRFSlots = free - s.MaxWriters
	}
}

// analyzeBitMasks fixpoints backward bit-liveness over the loop: the
// body's live-in masks are iterated (backward sweeps feeding the loop
// backedge) until stable — masks only ever grow and have 64×32 bits,
// so convergence is fast — then init is swept once against the loop
// head's fixpoint.
func (s *Summary) analyzeBitMasks(p *prog.Program) {
	s.LiveIn = make([]RegMasks, len(p.Init)+len(p.Body))
	bodyIn := s.LiveIn[len(p.Init):]

	transfer := func(in *isa.Instr, live *RegMasks) {
		var destDemand uint64
		if isa.WritesDest(in) {
			destDemand = live[in.Dest]
			live[in.Dest] = 0
		}
		s1, s2 := isa.SrcDemand(in, destDemand)
		if in.Src1 != isa.RZero {
			live[in.Src1] |= s1
		}
		if in.Src2 != isa.RZero {
			live[in.Src2] |= s2
		}
	}

	var head RegMasks // live-in of body[0] (the loop head)
	for iter := 0; iter < 2*64*isa.NumArchRegs; iter++ {
		cur := head // live-out of body[len-1] is the loop head's live-in
		for i := len(p.Body) - 1; i >= 0; i-- {
			transfer(&p.Body[i], &cur)
			bodyIn[i] = cur
		}
		if cur == head {
			break
		}
		// Masks are monotone under union with the previous head.
		for r := range head {
			head[r] |= cur[r]
		}
	}
	cur := head
	for i := len(p.Init) - 1; i >= 0; i-- {
		transfer(&p.Init[i], &cur)
		s.LiveIn[i] = cur
	}
}

// LiveBitFrac returns the fraction of live bits across all live-in
// masks — the bit-level tightening the reporting side quotes.
func (s *Summary) LiveBitFrac() float64 {
	if len(s.LiveIn) == 0 {
		return 0
	}
	var live, total uint64
	for i := range s.LiveIn {
		for r := 0; r < isa.NumArchRegs-1; r++ { // r31 is hardwired zero
			live += uint64(popcount(s.LiveIn[i][r]))
			total += 64
		}
	}
	if total == 0 {
		return 0
	}
	return float64(live) / float64(total)
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// String renders the summary's prune-relevant facts on one line.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "liveness: deaddefs=%d/%d caps iq=%d lq=%d sq=%d fu=%d rf-free=%d livebits=%.3f",
		s.deadDefCount, s.defCount, s.IQCap, s.LQCap, s.SQCap, s.FUCap, s.FreeRFSlots, s.LiveBitFrac())
	return b.String()
}

// LastWriter returns the static instruction whose definition of
// register r is visible on entry to instruction position idx of p
// (inBody selects Body vs Init indexing) under the program's
// init·body^ω execution order, walking the static def-use chain
// backward: first the earlier body instructions of the current
// iteration, then the previous iteration's tail (including idx itself —
// self-redefining chains like the pointer chase read their own previous
// definition), and only then Init. When the body redefines r at all,
// the cyclic body writer is the visible one at every iteration past the
// first — the steady state every measurement window samples. Returns
// false for RZero (hardwired, no producer) and for registers no
// instruction defines.
func LastWriter(p *prog.Program, inBody bool, idx int, r isa.Reg) (*isa.Instr, bool) {
	if r == isa.RZero {
		return nil, false
	}
	writes := func(in *isa.Instr) bool { return isa.WritesDest(in) && in.Dest == r }
	if inBody {
		for i := idx - 1; i >= 0; i-- {
			if writes(&p.Body[i]) {
				return &p.Body[i], true
			}
		}
		for i := len(p.Body) - 1; i >= idx; i-- {
			if writes(&p.Body[i]) {
				return &p.Body[i], true
			}
		}
		idx = len(p.Init)
	}
	for i := idx - 1; i >= 0 && i < len(p.Init); i-- {
		if writes(&p.Init[i]) {
			return &p.Init[i], true
		}
	}
	return nil, false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
