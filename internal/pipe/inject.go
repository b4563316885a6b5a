package pipe

// Fault-injection replay support (DESIGN.md §9). A Fault names one
// single-bit target — a structure, a bit index inside the structure's
// SER-relevant bit space, and an injection cycle — and RunFault replays
// a program deterministically with that fault applied, classifying
// whether the flipped bit would have reached committed architectural
// state. The model is value-free, so a flip's visibility is decided by
// the microarchitectural fate of the entity occupying the flipped bit:
// the replay observes that fate directly (commit vs flush for queue
// entries, future reads for register values, the Biswas lifetime
// transition for cache chunks) and applies exactly the visibility rules
// the ACE accounting integrates — which is what makes a Monte Carlo
// campaign over uniform (bit, cycle) targets an unbiased estimator of
// the ACE-based AVF (internal/inject).

import (
	"fmt"
	"sort"

	"avfstress/internal/avf"
	"avfstress/internal/cache"
	"avfstress/internal/isa"
	"avfstress/internal/prog"
	"avfstress/internal/uarch"
)

// Fault is one single-bit fault target.
type Fault struct {
	// Structure is the SER-tracked structure the bit belongs to.
	Structure uarch.Structure
	// Bit indexes the structure's bit space [0, uarch.Bits(cfg, s)).
	// Entry association is canonical: queue structures map bit/entryBits
	// to the k-th oldest occupant, the register file and DTLB map to the
	// physical slot, caches map data bits line-major/byte-major and the
	// remainder to one tag entry per line.
	Bit uint64
	// Cycle is the absolute injection cycle. It must lie inside the
	// measured window of the golden run ([window start, window start +
	// cycles)).
	Cycle int64
}

// Fingerprint returns a canonical description of the fault target for
// internal/simcache trial keys.
func (f Fault) Fingerprint() string {
	return fmt.Sprintf("pipe.Fault{%d %d %d}", int(f.Structure), f.Bit, f.Cycle)
}

// FaultTrial is the outcome of one injection replay.
type FaultTrial struct {
	// Corrupted reports whether the flipped bit reaches committed
	// architectural state (an SDC before any detection derating);
	// otherwise the fault was masked.
	Corrupted bool
	// Digest is the committed-state digest of the replay with the
	// fault's corruption folded in, when the replay ran in full mode
	// (RunFault full=true); zero otherwise. A masked full replay's
	// digest equals the golden digest bit-exactly; a corrupted one's
	// differs.
	Digest uint64
	// Diverge identifies the first divergent commit of a corrupted
	// replay (Seq -1 when the trial was masked or the corruption has no
	// consuming instruction — the cache/TLB fate watches track lifetime
	// transitions, not instruction identity).
	Diverge Diverge
}

// Diverge names the first divergent commit of a corrupted replay: the
// earliest-committing instruction whose architectural effect consumed
// the flipped bit. In full mode the corruption marker is folded into
// exactly this instruction's commit digest, so the replay's digest
// stream deviates from the golden stream first at this commit; the
// identity recorded here is what internal/rootcause walks back from.
type Diverge struct {
	// Seq is the consuming instruction's dynamic stream sequence number
	// (prog.Dyn.Seq), or -1 when there is no consuming instruction.
	Seq int64
	// PC is the consuming instruction's static program counter.
	PC uint64
	// Op is the consuming instruction's opcode.
	Op isa.Op
	// SrcSlot is the physical source-operand slot through which the
	// flipped register value reached the consumer (register-file faults
	// only; -1 when the flipped bit is part of the consumer's own
	// in-flight state and the operand is structure-implied).
	SrcSlot int8
}

// GoldenInfo carries the replay-relevant facts of a golden (fault-free)
// run beyond its avf.Result.
type GoldenInfo struct {
	// WindowStart is the cycle measurement began (end of warmup).
	WindowStart int64
	// Cycles is the measured window length (== Result.Cycles).
	Cycles int64
	// Digest is the committed-state digest over the whole run.
	Digest uint64
	// RFDead is the register-file dead-occupancy interval set recorded
	// by SimulateGoldenRecorded (nil for unrecorded golden runs): the
	// dynamic footprint of the statically dead definitions, which the
	// campaign's target pruner intersects fault targets against.
	RFDead []RFDeadInterval
}

// injTrial tracks one fault riding a replay. Faults are pure observers
// — they never mutate simulator state — so any number of trials can
// share one replay and each resolves exactly as it would alone
// (TestFaultBatchMatchesSolo locks that in).
type injTrial struct {
	fault Fault
	idx   int // caller-order index (trials are cycle-sorted internally)

	applied   bool // the fault has been applied (or armed, for mem watches)
	memWatch  bool // fault targets DL1/L2/DTLB (fate watch in internal/cache)
	resolved  bool
	corrupted bool
	marked    bool  // corruption marker folded into the digest
	watchReg  int16 // armed register-file watch (noReg = none)

	// First-divergent-commit capture: the consuming instruction of a
	// corrupting flip. Queue-structure trials record their occupant at
	// fault application; register-file trials track the minimum-sequence
	// ACE reader past the injection cycle (in-order commit makes the
	// min-seq reader the first divergent commit). consStatic is only
	// ever set once the trial's corruption is certain.
	consStatic *isa.Instr
	consSeq    int64
	consSlot   int8
}

// injState tracks the in-flight fault trials of one replay during
// runCycles, sorted by injection cycle. Fate resolution costs
// O(state changes), not O(trials): register watches are indexed by
// physical register, and the cache/TLB fate watches are indexed by line
// and entry inside internal/cache, which appends each resolution to
// fates for the end-of-cycle poll to apply.
type injState struct {
	trials  []injTrial
	next    int  // apply cursor over the cycle-sorted trials
	open    int  // trials not yet resolved
	memOpen int  // unresolved mem-watch trials (gates the end-of-run sweep)
	rfOpen  int  // armed unresolved register watches (gates the RF hooks)
	full    bool // run to completion and fold corruption into the digest

	// regWatch lists, per physical register, the trials (indices into
	// trials) whose armed watch is on that register's current value; a
	// release resolves and empties the list. Allocated on the first
	// register-file watch.
	regWatch [][]int32
	// fates queues the cache/TLB watch resolutions (watch id = trial
	// index) made since the last poll.
	fates []cache.Fate
}

// FNV-1a constants for the commit digest, plus the marker folded into a
// full replay's digest at the point a fault's corruption is resolved to
// reach architectural state.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
	injMark     = 0x9e3779b97f4a7c15
)

func mix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// digestCommit folds one retiring instruction's architectural effect —
// opcode, register operands, effective address and branch outcome —
// into the running commit digest. Only called with digestOn.
func (pl *Pipeline) digestCommit(u *uop) {
	w := uint64(u.opc) | uint64(u.static.Dest)<<8 |
		uint64(u.static.Src1)<<16 | uint64(u.static.Src2)<<24
	if u.predTaken {
		w |= 1 << 32
	}
	if u.mispred {
		w |= 1 << 33
	}
	pl.digest = mix64(mix64(pl.digest, w), u.addr)
}

// injResolve records one trial's outcome; in full mode a corrupting
// fault additionally folds the corruption marker into the digest, so the
// architectural-state diff against the golden run is what classifies the
// trial. A trial with a recorded consuming instruction defers the fold
// to that instruction's commit (injMarkCommit), which is by construction
// the first commit whose digest contribution deviates from the golden
// stream; only consumer-less corruption (the cache/TLB fate watches)
// folds the marker here, between commits.
func (pl *Pipeline) injResolve(t *injTrial, corrupt bool) {
	if t.resolved {
		return
	}
	t.resolved = true
	t.corrupted = corrupt
	pl.inj.open--
	if t.memWatch {
		pl.inj.memOpen--
	}
	if t.watchReg != noReg {
		t.watchReg = noReg
		pl.inj.rfOpen--
	}
	if corrupt && pl.digestOn && t.consStatic == nil && !t.marked {
		t.marked = true
		pl.digest = mix64(pl.digest, injMark)
	}
}

// injNoteRead records an ACE read of a watched physical register past a
// trial's injection cycle: the reading instruction consumed the flipped
// value, so the trial is certain to resolve corrupted and its first
// divergent commit is the minimum-sequence such reader (commit is in
// order, so once the current minimum commits no smaller reader can
// appear). Called from issue for every lastRead-advancing operand read
// while any register watch is armed.
func (pl *Pipeline) injNoteRead(p int16, u *uop, slot int8) {
	inj := pl.inj
	for _, i := range inj.regWatch[p] {
		t := &inj.trials[i]
		if pl.now <= t.fault.Cycle {
			continue
		}
		if t.consStatic == nil || u.dynSeq < t.consSeq {
			t.consStatic, t.consSeq, t.consSlot = u.static, u.dynSeq, slot
		}
	}
}

// injMarkCommit folds the corruption marker of any trial whose consuming
// instruction is retiring right now, making this commit the first whose
// digest contribution differs from the golden run's. Called from commit
// after digestCommit while a replay is armed in full mode.
func (pl *Pipeline) injMarkCommit(u *uop) {
	inj := pl.inj
	for i := range inj.trials {
		t := &inj.trials[i]
		if t.consStatic != nil && !t.marked && t.consSeq == u.dynSeq && t.consStatic == u.static {
			t.marked = true
			pl.digest = mix64(pl.digest, injMark)
		}
	}
}

// injPoll applies the cache/TLB fate-watch resolutions queued since the
// previous poll. Called at the end of a simulated cycle only when the
// queue is non-empty, so it never runs in a cycle where nothing resolved.
func (pl *Pipeline) injPoll() {
	inj := pl.inj
	for _, f := range inj.fates {
		pl.injResolve(&inj.trials[f.ID], f.ACE)
	}
	inj.fates = inj.fates[:0]
}

// injRegRelease resolves the armed register-file watches on physical
// register p when it is released at the overwriting instruction's
// commit: the flipped value was consumed iff an ACE instruction read it
// after the injection cycle — the same fill→last-read span the RF
// accounting integrates. Called only while rfOpen > 0.
func (pl *Pipeline) injRegRelease(p int16) {
	inj := pl.inj
	ws := inj.regWatch[p]
	if len(ws) == 0 {
		return
	}
	inj.regWatch[p] = ws[:0]
	for _, i := range ws {
		t := &inj.trials[i]
		pl.injResolve(t, pl.regs[p].lastRead > t.fault.Cycle)
	}
}

// uop occupancy predicates for entry association (oldest-first).
func occIQ(u *uop) bool { return u.inIQ }
func occLQ(u *uop) bool { return u.inLQ }
func occSQ(u *uop) bool { return u.inSQ }
func occFU(u *uop) bool { return (u.opc == isa.OpAdd || u.opc == isa.OpMul) && u.state == sIssued }

// nthOccupant returns the k-th oldest in-flight uop satisfying pred, or
// nil when fewer than k+1 occupants exist (the sampled entry is empty).
func (pl *Pipeline) nthOccupant(k int, pred func(*uop) bool) *uop {
	for seq := pl.head; seq < pl.tail; seq++ {
		u := pl.at(seq)
		if pred(u) {
			if k == 0 {
				return u
			}
			k--
		}
	}
	return nil
}

// injResolveOccupant resolves a queue-structure trial whose fate is its
// occupant's ACEness, recording the occupant as the consuming
// instruction of a corrupting flip: the flipped bit is part of the
// occupant's own in-flight state, so the occupant's commit is the first
// divergent one.
func (pl *Pipeline) injResolveOccupant(t *injTrial, corrupt bool, u *uop) {
	if corrupt {
		t.consStatic, t.consSeq, t.consSlot = u.static, u.dynSeq, -1
	}
	pl.injResolve(t, corrupt)
}

// applyFault applies armed trial i at its injection cycle: it locates
// the occupant of the flipped bit and either resolves the trial
// immediately (queue structures, whose fate is their occupant's ACEness)
// or arms a register watch. Empty slots, wrong-path and un-ACE occupants
// and not-yet-live values resolve masked — exactly the states the ACE
// accounting excludes.
func (pl *Pipeline) applyFault(i int) {
	t := &pl.inj.trials[i]
	t.applied = true
	f := t.fault
	core := pl.core
	switch f.Structure {
	case uarch.IQ:
		// Issue-queue entries are vulnerable from dispatch to issue
		// (entries free at issue, 21264-style).
		if u := pl.nthOccupant(int(f.Bit/uint64(core.IQEntryBits)), occIQ); u != nil {
			pl.injResolveOccupant(t, u.ace, u)
			return
		}
	case uarch.ROB:
		if k := int64(f.Bit / uint64(core.ROBEntryBits)); k < pl.tail-pl.head {
			u := pl.at(pl.head + k)
			pl.injResolveOccupant(t, u.ace, u)
			return
		}
	case uarch.FU:
		// One stage slot per executing arithmetic operation; an in-flight
		// result is corrupted iff the operation is ACE (squashed wrong-path
		// work burns the stage but carries no architectural value).
		if u := pl.nthOccupant(int(f.Bit/uint64(core.RegBits)), occFU); u != nil {
			pl.injResolveOccupant(t, u.ace, u)
			return
		}
	case uarch.RF:
		p := int16(f.Bit / uint64(core.RegBits))
		r := &pl.regs[p]
		if r.written && r.aceValue && r.writeTime <= f.Cycle {
			// Live ACE value: vulnerable until its last future read.
			inj := pl.inj
			if inj.regWatch == nil {
				inj.regWatch = make([][]int32, len(pl.regs))
			}
			inj.regWatch[p] = append(inj.regWatch[p], int32(i))
			t.watchReg = p
			inj.rfOpen++
			return
		}
	case uarch.LQTag:
		// The address is consumed at issue (which regenerates it from the
		// register operands); the queued tag serves disambiguation until
		// retire — vulnerable from issue to commit.
		if u := pl.nthOccupant(int(f.Bit/uint64(core.LSQEntryBits/2)), occLQ); u != nil {
			pl.injResolveOccupant(t, u.ace && u.state != sWaiting, u)
			return
		}
	case uarch.LQData:
		if u := pl.nthOccupant(int(f.Bit/uint64(core.LSQEntryBits/2)), occLQ); u != nil {
			pl.injResolveOccupant(t, u.ace && u.state != sWaiting && u.dataReady <= f.Cycle, u)
			return
		}
	case uarch.SQTag, uarch.SQData:
		// Store address and data are captured at completion and consumed
		// by the architectural write at retire.
		if u := pl.nthOccupant(int(f.Bit/uint64(core.LSQEntryBits/2)), occSQ); u != nil {
			pl.injResolveOccupant(t, u.ace && u.state == sDone, u)
			return
		}
	}
	pl.injResolve(t, false)
}

// finishTrials resolves trials still open at the natural end of the run:
// partially elapsed intervals of still-live state are ACE, exactly as
// finalize() counts them, and cache/TLB watches resolve through the
// hierarchy's end-of-run eviction sweep (run at most once). A trial
// whose injection cycle was never reached is an error — it indicates a
// target sampled against a different golden run.
func (pl *Pipeline) finishTrials() error {
	inj := pl.inj
	for i := range inj.trials {
		if t := &inj.trials[i]; !t.applied {
			return fmt.Errorf("pipe: fault cycle %d beyond end of run (cycle %d)", t.fault.Cycle, pl.now)
		}
	}
	if inj.memOpen > 0 {
		pl.mem.Finalize(pl.now)
		pl.injPoll()
	}
	for i := range inj.trials {
		t := &inj.trials[i]
		if t.resolved {
			continue
		}
		if t.watchReg != noReg {
			pl.injResolve(t, pl.regs[t.watchReg].lastRead > t.fault.Cycle)
			continue
		}
		// The flipped bit held no live state at the injection cycle.
		pl.injResolve(t, false)
	}
	if pl.digestOn {
		// A corrupting trial whose consuming instruction never committed
		// (the run budget ended with it in flight) still folds its marker
		// exactly once, preserving digest≠golden ⟺ corrupted.
		for i := range inj.trials {
			t := &inj.trials[i]
			if t.corrupted && !t.marked {
				t.marked = true
				pl.digest = mix64(pl.digest, injMark)
			}
		}
	}
	return nil
}

// staticPC maps a static-instruction pointer back to its program
// counter. Linear in program size; called once per corrupted trial at
// the end of a replay, never on a stage hot path.
func (pl *Pipeline) staticPC(in *isa.Instr) uint64 {
	p := pl.p
	for i := range p.Init {
		if in == &p.Init[i] {
			return prog.InitBase + uint64(i)*isa.InstrBytes
		}
	}
	for i := range p.Body {
		if in == &p.Body[i] {
			return prog.PCOf(i)
		}
	}
	return 0
}

// trialDiverge extracts the first-divergent-commit record of one trial.
func (pl *Pipeline) trialDiverge(t *injTrial) Diverge {
	if !t.corrupted || t.consStatic == nil {
		return Diverge{Seq: -1, SrcSlot: -1}
	}
	return Diverge{
		Seq:     t.consSeq,
		PC:      pl.staticPC(t.consStatic),
		Op:      t.consStatic.Op,
		SrcSlot: t.consSlot,
	}
}

// armTrials validates the fault targets, builds the cycle-sorted trial
// state and arms the cache/TLB fate watches. Cache and TLB targets are
// watched from the start of the replay: hierarchy accesses carry
// timestamps ahead of the pipeline's wall clock, so the lifetime
// interval containing the injection cycle can be closed by an access
// executed wall-earlier.
func (pl *Pipeline) armTrials(faults []Fault, full bool) (*injState, error) {
	inj := &injState{trials: make([]injTrial, len(faults)), full: full}
	for i, f := range faults {
		if f.Structure < 0 || f.Structure >= uarch.NumStructures {
			return nil, fmt.Errorf("pipe: fault structure %d out of range", int(f.Structure))
		}
		if max := uarch.Bits(pl.cfg, f.Structure); f.Bit >= max {
			return nil, fmt.Errorf("pipe: fault bit %d out of range for %s (%d bits)",
				f.Bit, f.Structure, max)
		}
		if f.Cycle < 0 {
			return nil, fmt.Errorf("pipe: negative fault cycle %d", f.Cycle)
		}
		inj.trials[i] = injTrial{fault: f, idx: i, watchReg: noReg, consSeq: -1, consSlot: -1}
	}
	sort.SliceStable(inj.trials, func(a, b int) bool {
		return inj.trials[a].fault.Cycle < inj.trials[b].fault.Cycle
	})
	inj.open = len(inj.trials)
	for i := range inj.trials {
		t := &inj.trials[i]
		f := t.fault
		var err error
		switch id := int32(i); f.Structure {
		case uarch.DL1:
			err = pl.mem.DL1.AddWatch(f.Bit, f.Cycle, id, &inj.fates)
		case uarch.L2:
			err = pl.mem.L2.AddWatch(f.Bit, f.Cycle, id, &inj.fates)
		case uarch.DTLB:
			err = pl.mem.DTLB.AddWatch(int(f.Bit/uint64(pl.cfg.Mem.DTLB.EntryBits)), f.Cycle, id, &inj.fates)
		default:
			continue
		}
		if err != nil {
			pl.clearInj()
			return nil, err
		}
		t.memWatch, t.applied = true, true
		inj.memOpen++
	}
	inj.fates = make([]cache.Fate, 0, inj.memOpen)
	return inj, nil
}

// clearInj tears down injection state after a replay.
func (pl *Pipeline) clearInj() {
	pl.inj = nil
	pl.digestOn = false
	pl.mem.DL1.ClearWatches()
	pl.mem.L2.ClearWatches()
	pl.mem.DTLB.ClearWatches()
}

// RunFault replays the program under rc with fault f injected and
// returns the trial outcome. Call once per New or Reset, like Run. With
// full=false the replay stops as soon as the fault's fate is resolved;
// with full=true it always runs to completion, computing the commit
// digest with the corruption folded in so the outcome is equivalently
// readable as an architectural-state diff against the golden digest
// (TestFaultFullReplayMatchesEarly locks the equivalence).
//
// f.Cycle must lie inside the run: a cycle beyond the program's end is
// an error (it indicates a target sampled against a different golden
// run).
func (pl *Pipeline) RunFault(rc RunConfig, f Fault, full bool) (FaultTrial, error) {
	inj, err := pl.armTrials([]Fault{f}, full)
	if err != nil {
		return FaultTrial{}, err
	}
	pl.inj = inj
	pl.digestOn = full
	pl.digest = fnvOffset64
	defer pl.clearInj()
	if err := pl.runLoop(rc); err != nil {
		return FaultTrial{}, err
	}
	if err := pl.finishTrials(); err != nil {
		return FaultTrial{}, err
	}
	t := &inj.trials[0]
	trial := FaultTrial{Corrupted: t.corrupted, Diverge: pl.trialDiverge(t)}
	if full {
		trial.Digest = pl.digest
	}
	return trial, nil
}

// runFaults replays the program under rc once with every fault in
// faults armed as an independent observer (early-resolution mode) and
// returns per-fault trial records in caller order, resuming from the
// restored state when resume is set (Pool.SimulateFaultsDetailFrom).
// Every fault must then satisfy ck.Cycle()+lead ≤ fault.Cycle for the
// hierarchy's timestamp lead (CheckpointSet.Nearest enforces this), so
// every lifetime transition that can resolve a watch happens after the
// fork point.
func (pl *Pipeline) runFaults(rc RunConfig, faults []Fault, resume bool) ([]FaultTrial, error) {
	if len(faults) == 0 {
		return nil, nil
	}
	inj, err := pl.armTrials(faults, false)
	if err != nil {
		return nil, err
	}
	pl.inj = inj
	defer pl.clearInj()
	if resume {
		err = pl.resumeLoop(rc)
	} else {
		err = pl.runLoop(rc)
	}
	if err != nil {
		return nil, err
	}
	if err := pl.finishTrials(); err != nil {
		return nil, err
	}
	out := make([]FaultTrial, len(faults))
	for i := range inj.trials {
		t := &inj.trials[i]
		out[t.idx] = FaultTrial{Corrupted: t.corrupted, Diverge: pl.trialDiverge(t)}
	}
	return out, nil
}

// SimulateGolden runs program p under rc on a pooled pipeline like
// Simulate, additionally returning the golden-run facts fault-injection
// campaigns replay against: measurement-window start, window length and
// the committed-state digest.
func (pp *Pool) SimulateGolden(p *prog.Program, rc RunConfig) (*avf.Result, GoldenInfo, error) {
	pl, err := pp.get(p)
	if err != nil {
		return nil, GoldenInfo{}, err
	}
	pl.digestOn = true
	pl.digest = fnvOffset64
	res, err := pl.Run(rc)
	info := GoldenInfo{Digest: pl.digest}
	pl.digestOn = false
	if err == nil {
		info.WindowStart = pl.acct.windowStart
		info.Cycles = res.Cycles
	}
	pp.pool.Put(pl)
	if err != nil {
		return nil, GoldenInfo{}, err
	}
	return res, info, nil
}

// SimulateFaultDetail replays program p under rc on a pooled pipeline
// with fault f injected (early-resolution mode) and returns the trial
// record: whether the fault corrupts committed architectural state and
// the first-divergent-commit identity of a corrupting fault
// (internal/rootcause attributes from it). Early-resolution mode: the
// consuming instruction is identified at or before resolution, so the
// replay still stops as soon as the fate is known.
func (pp *Pool) SimulateFaultDetail(p *prog.Program, rc RunConfig, f Fault) (FaultTrial, error) {
	pl, err := pp.get(p)
	if err != nil {
		return FaultTrial{}, err
	}
	trial, err := pl.RunFault(rc, f, false)
	pp.pool.Put(pl)
	if err != nil {
		return FaultTrial{}, err
	}
	return trial, nil
}
