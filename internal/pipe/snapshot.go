package pipe

// Checkpointed fork-replay (DESIGN.md §10). A Checkpoint is a deep copy
// of the complete simulator state at the top of one cycle — everything
// Reset would otherwise rebuild: the ROB ring with its per-slot
// generation counters, the rename-map checkpoint matrix, the register
// file and free list, the completion wheel (buckets, due buffer and push
// floor), the ready bitmap, the waiter/parked lists, the doubleword
// store index, the program-stream cursor, the branch-predictor tables,
// the ACE accounting accumulators, the commit digest and a full
// cache.HierarchyState. Restore overwrites a pipeline with that state,
// after which runCycles continues bit-identically to the run the
// snapshot was taken from — the differential tests in snapshot_test.go
// lock that in.
//
// The point is fault injection: a campaign of N trials replays the
// program N times, and almost all of that work re-simulates the prefix
// before each injection cycle. SimulateGoldenRecorded captures
// checkpoints during the (already mandatory) golden run, and
// SimulateFaultsDetailFrom forks a replay from the nearest checkpoint that is
// safely before the fault instead of from cycle zero.
//
// Safety margin: hierarchy accesses carry timestamps that run ahead of
// the pipeline wall clock (a load issued at wall cycle W stamps its L2
// fill at W+latencies), so a lifetime interval containing fault cycle F
// can be closed by an access executed wall-earlier than F. A checkpoint
// at cycle C is therefore valid for F only when C + lead ≤ F, with lead
// = cache.Hierarchy.TimestampLead(): every transition that could
// resolve a fate watch for F then executes wall-after C and is observed
// by watches armed at restore time. CheckpointSet.Nearest enforces the
// margin.

import (
	"errors"
	"fmt"

	"avfstress/internal/avf"
	"avfstress/internal/bpred"
	"avfstress/internal/cache"
	"avfstress/internal/isa"
	"avfstress/internal/prog"
)

// ckptRef is a serialisable (seq, generation) reference; waiterRef and
// readyRef both convert to and from it.
type ckptRef struct {
	seq int64
	gen uint32
}

// ckptRefList is one non-empty waiter or parked list, keyed by the
// physical register (waiters) or ROB slot (blockedOn) it hangs off.
type ckptRefList struct {
	idx  int32
	refs []ckptRef
}

// Checkpoint is a deep, self-contained snapshot of a Pipeline mid-run.
// It is immutable once taken, so any number of replays (on any pipelines
// of the same configuration) can fork from it concurrently.
type Checkpoint struct {
	cfgFP  string
	progFP string
	prog   *prog.Program // not serialised; MarshalBinary encodes progFP

	cycle int64

	head, tail             int64
	iqUsed, lqUsed, sqUsed int
	fetchStallUntil        int64
	wrongPathMode          bool
	wpIdx                  int
	pending                fetchItem
	havePending            bool
	streamDone             bool
	lastCommit             int64
	digest                 uint64

	acct accounting

	rob  []uop   // full ring copy (dead slots keep their generation counters)
	ckpt []int16 // rename-map checkpoints, flattened ring-major

	archMap  []int16
	freeList []int16
	regs     []physReg

	wheelHead   int64
	wheelEvents []event // bucketed events in slot order (per-bucket order preserved)
	wheelDue    []event // unconsumed tail of the due buffer

	readyWords []uint64
	readyCount int

	waiters []ckptRefList
	blocked []ckptRefList

	dwKeys         []uint64
	dwVals         [][]int64
	dwLive, dwUsed int

	stream prog.StreamState
	bp     bpred.State
	mem    cache.HierarchyState
}

// Cycle returns the wall-clock cycle the checkpoint was captured at.
func (ck *Checkpoint) Cycle() int64 { return ck.cycle }

// Snapshot captures the pipeline's complete state. The copy is deep:
// the pipeline and the checkpoint share no mutable memory (static
// instruction pointers alias the immutable program, which is by
// design — Restore rebinds the target pipeline to the same program).
func (pl *Pipeline) Snapshot() *Checkpoint {
	ck := &Checkpoint{
		cfgFP:           pl.cfg.Fingerprint(),
		progFP:          pl.p.Fingerprint(),
		prog:            pl.p,
		cycle:           pl.now,
		head:            pl.head,
		tail:            pl.tail,
		iqUsed:          pl.iqUsed,
		lqUsed:          pl.lqUsed,
		sqUsed:          pl.sqUsed,
		fetchStallUntil: pl.fetchStallUntil,
		wrongPathMode:   pl.wrongPathMode,
		wpIdx:           pl.wpIdx,
		pending:         pl.pending,
		havePending:     pl.havePending,
		streamDone:      pl.streamDone,
		lastCommit:      pl.lastCommit,
		digest:          pl.digest,
		acct:            pl.acct,
		stream:          pl.stream.State(),
	}
	ck.rob = append([]uop(nil), pl.rob...)
	ck.ckpt = make([]int16, len(pl.ckpt)*isa.NumArchRegs)
	for i, row := range pl.ckpt {
		copy(ck.ckpt[i*isa.NumArchRegs:(i+1)*isa.NumArchRegs], row)
	}
	ck.archMap = append([]int16(nil), pl.archMap...)
	ck.freeList = append([]int16(nil), pl.freeList...)
	ck.regs = append([]physReg(nil), pl.regs...)

	w := &pl.compW
	ck.wheelHead = w.head
	if w.pending > 0 {
		ck.wheelEvents = make([]event, 0, w.pending)
		for i := range w.slots {
			ck.wheelEvents = append(ck.wheelEvents, w.slots[i]...)
		}
	}
	ck.wheelDue = append([]event(nil), w.due[w.dueIdx:]...)

	ck.readyWords = append([]uint64(nil), pl.readyB.words...)
	ck.readyCount = pl.readyB.count
	for i, refs := range pl.waiters {
		if len(refs) > 0 {
			l := ckptRefList{idx: int32(i), refs: make([]ckptRef, len(refs))}
			for j, r := range refs {
				l.refs[j] = ckptRef{seq: r.seq, gen: r.gen}
			}
			ck.waiters = append(ck.waiters, l)
		}
	}
	for i, refs := range pl.blockedOn {
		if len(refs) > 0 {
			l := ckptRefList{idx: int32(i), refs: make([]ckptRef, len(refs))}
			for j, r := range refs {
				l.refs[j] = ckptRef{seq: r.seq, gen: r.gen}
			}
			ck.blocked = append(ck.blocked, l)
		}
	}

	dw := &pl.dwStores
	ck.dwKeys = append([]uint64(nil), dw.keys...)
	ck.dwVals = make([][]int64, len(dw.vals))
	for i, v := range dw.vals {
		if len(v) > 0 {
			ck.dwVals[i] = append([]int64(nil), v...)
		}
	}
	ck.dwLive, ck.dwUsed = dw.live, dw.used

	pl.bp.Snapshot(&ck.bp)
	pl.mem.Snapshot(&ck.mem)
	return ck
}

// Restore overwrites the pipeline's state with the checkpoint's. The
// pipeline must have the same configuration the checkpoint was captured
// on (enforced by fingerprint); it need not be Reset first — every live
// field is overwritten, which is why Pool.raw skips the reset pass.
// Injection state and the checkpoint recorder are cleared; the caller
// arms them after restoring. A failed Restore leaves the pipeline in an
// undefined state: Reset it before reuse.
func (pl *Pipeline) Restore(ck *Checkpoint) error {
	if ck.prog == nil {
		return errors.New("pipe: checkpoint has no program bound")
	}
	if fp := pl.cfg.Fingerprint(); fp != ck.cfgFP {
		return fmt.Errorf("pipe: checkpoint configuration mismatch (%s vs %s)", ck.cfgFP, fp)
	}
	if len(ck.rob) != len(pl.rob) || len(ck.ckpt) != len(pl.ckpt)*isa.NumArchRegs ||
		len(ck.archMap) != len(pl.archMap) || len(ck.regs) != len(pl.regs) ||
		len(ck.readyWords) != len(pl.readyB.words) {
		return errors.New("pipe: checkpoint geometry mismatch")
	}

	pl.p = ck.prog
	pl.stream.ResetTo(ck.prog)
	pl.stream.SetState(ck.stream)

	pl.now = ck.cycle
	pl.head, pl.tail = ck.head, ck.tail
	pl.iqUsed, pl.lqUsed, pl.sqUsed = ck.iqUsed, ck.lqUsed, ck.sqUsed
	pl.fetchStallUntil = ck.fetchStallUntil
	pl.wrongPathMode = ck.wrongPathMode
	pl.wpIdx = ck.wpIdx
	pl.pending = ck.pending
	pl.havePending = ck.havePending
	pl.streamDone = ck.streamDone
	pl.lastCommit = ck.lastCommit
	pl.acct = ck.acct

	copy(pl.rob, ck.rob)
	for i := range pl.ckpt {
		copy(pl.ckpt[i], ck.ckpt[i*isa.NumArchRegs:(i+1)*isa.NumArchRegs])
	}
	copy(pl.archMap, ck.archMap)
	pl.freeList = append(pl.freeList[:0], ck.freeList...)
	copy(pl.regs, ck.regs)

	// Rebuild the wheel: pushing the saved bucket events re-derives the
	// occupancy bitmap, pending count and nextDue; bucket membership is a
	// pure function of the cycle, and per-bucket insertion order is
	// preserved by the slot-order capture (drain order is additionally
	// seq-sorted, so it is reproduced exactly). Every bucketed event has
	// cycle ≥ head — the wheel's push-floor invariant — so push never
	// panics here. The partially consumed due buffer bypasses push: its
	// bucket was already drained, so its events may lie below head.
	w := &pl.compW
	w.reset()
	w.head = ck.wheelHead
	for _, e := range ck.wheelEvents {
		w.push(e)
	}
	w.due = append(w.due[:0], ck.wheelDue...)
	w.dueIdx = 0

	copy(pl.readyB.words, ck.readyWords)
	pl.readyB.count = ck.readyCount

	for i := range pl.waiters {
		pl.waiters[i] = pl.waiters[i][:0]
	}
	for _, l := range ck.waiters {
		if int(l.idx) >= len(pl.waiters) {
			return fmt.Errorf("pipe: checkpoint waiter register %d out of range", l.idx)
		}
		refs := pl.waiters[l.idx][:0]
		for _, r := range l.refs {
			refs = append(refs, waiterRef{seq: r.seq, gen: r.gen})
		}
		pl.waiters[l.idx] = refs
	}
	for i := range pl.blockedOn {
		pl.blockedOn[i] = pl.blockedOn[i][:0]
	}
	for _, l := range ck.blocked {
		if int(l.idx) >= len(pl.blockedOn) {
			return fmt.Errorf("pipe: checkpoint parked slot %d out of range", l.idx)
		}
		refs := pl.blockedOn[l.idx][:0]
		for _, r := range l.refs {
			refs = append(refs, readyRef{seq: r.seq, gen: r.gen})
		}
		pl.blockedOn[l.idx] = refs
	}

	if err := pl.dwStores.restore(ck.dwKeys, ck.dwVals, ck.dwLive, ck.dwUsed); err != nil {
		return err
	}
	if err := pl.bp.Restore(&ck.bp); err != nil {
		return err
	}
	if err := pl.mem.Restore(&ck.mem); err != nil {
		return err
	}

	pl.inj = nil
	pl.digestOn = false
	pl.digest = ck.digest
	pl.ckptRec = nil
	pl.liveRec = nil
	return nil
}

// restore overwrites the index from a snapshot of identical table size,
// recycling value slices through the free list.
func (d *dwIndex) restore(keys []uint64, vals [][]int64, live, used int) error {
	if len(keys) != len(d.keys) || len(vals) != len(d.vals) {
		return fmt.Errorf("pipe: store-index snapshot size %d vs %d", len(keys), len(d.keys))
	}
	for i := range d.keys {
		d.keys[i] = keys[i]
		sv := vals[i]
		cur := d.vals[i]
		if len(sv) == 0 {
			if cur != nil {
				d.free = append(d.free, cur[:0])
				d.vals[i] = nil
			}
			continue
		}
		if cur == nil {
			if n := len(d.free); n > 0 {
				cur = d.free[n-1][:0]
				d.free = d.free[:n-1]
			}
		} else {
			cur = cur[:0]
		}
		d.vals[i] = append(cur, sv...)
	}
	d.live, d.used = live, used
	return nil
}

const (
	// autoCheckpointInterval is the initial capture spacing when the
	// caller requests automatic interval selection (interval 0).
	autoCheckpointInterval = 1024
	// maxCheckpoints bounds a recorder's capture grid: reaching cell
	// maxCheckpoints halves the retained set and doubles the interval,
	// so memory is O(maxCheckpoints) regardless of run length while
	// spacing degrades gracefully (geometric thinning, like reservoir
	// halving).
	maxCheckpoints = 64
)

// AutoCheckpointSpacing is the capture interval an automatic-interval
// checkpointed golden run (interval 0) settles on for a measurement
// window of the given length: autoCheckpointInterval, doubled while the
// window reaches past maxCheckpoints grid cells. Callers that lay their
// own grid over the window (internal/inject's replay slices) use it to
// coincide with the captured checkpoints.
func AutoCheckpointSpacing(cycles int64) int64 {
	w := int64(autoCheckpointInterval)
	for cycles > maxCheckpoints*w {
		w *= 2
	}
	return w
}

// ckptRecorder captures checkpoints during a golden run at the top of
// the cycle loop (runCycles), on a grid anchored at the measurement-
// window start: one capture at the first loop cycle inside each cell
// [start+k·interval, start+(k+1)·interval). Anchoring the grid (rather
// than spacing each capture from the previous one) keeps fast-forwarded
// cycles from drifting captures later, so the final interval is a
// function of the window length alone (AutoCheckpointSpacing).
type ckptRecorder struct {
	interval int64
	nextAt   int64 // zero-valued recorder fires at the first measured cycle
	cks      []*Checkpoint
}

func (rec *ckptRecorder) take(pl *Pipeline) {
	start := pl.acct.windowStart
	for pl.now-start >= maxCheckpoints*rec.interval {
		rec.interval *= 2
		rec.thin(start)
	}
	rec.cks = append(rec.cks, pl.Snapshot())
	rec.nextAt = start + ((pl.now-start)/rec.interval+1)*rec.interval
}

// thin keeps the first capture of each cell of the (just doubled) grid.
func (rec *ckptRecorder) thin(start int64) {
	kept, last := 0, int64(-1)
	for _, ck := range rec.cks {
		if cell := (ck.cycle - start) / rec.interval; cell != last {
			rec.cks[kept] = ck
			kept++
			last = cell
		}
	}
	clear(rec.cks[kept:])
	rec.cks = rec.cks[:kept]
}

// CheckpointSet is the ordered (by cycle) checkpoint collection of one
// checkpointed golden run, plus the validity margin replays must respect.
type CheckpointSet struct {
	// Interval is the effective capture spacing after thinning.
	Interval int64
	// Lead is the hierarchy timestamp lead (cache.Hierarchy.TimestampLead)
	// of the configuration: checkpoint i may serve fault cycle F only
	// when Checkpoints[i].Cycle()+Lead ≤ F.
	Lead int64
	// Checkpoints in strictly increasing capture-cycle order.
	Checkpoints []*Checkpoint
}

// Cycles returns the capture cycles of the set's checkpoints, the
// manifest NearestCheckpoint searches.
func (cs *CheckpointSet) Cycles() []int64 {
	out := make([]int64, len(cs.Checkpoints))
	for i, ck := range cs.Checkpoints {
		out[i] = ck.cycle
	}
	return out
}

// Nearest returns the index of the latest checkpoint valid for a fault
// at the given cycle (-1 when none is: the replay must start from cycle
// zero).
func (cs *CheckpointSet) Nearest(cycle int64) int {
	if cs == nil {
		return -1
	}
	return NearestCheckpoint(cs.Cycles(), cs.Lead, cycle)
}

// NearestCheckpoint is Nearest over a bare capture-cycle manifest:
// the largest i with cycles[i]+lead ≤ cycle, or -1. cycles must be
// sorted ascending.
func NearestCheckpoint(cycles []int64, lead, cycle int64) int {
	lo, hi := 0, len(cycles)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cycles[mid]+lead <= cycle {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// raw returns a pooled pipeline without resetting it, for callers that
// immediately Restore a checkpoint (which overwrites every live field,
// making the reset pass pure waste).
func (pp *Pool) raw(p *prog.Program) (*Pipeline, error) {
	if v := pp.pool.Get(); v != nil {
		return v.(*Pipeline), nil
	}
	return New(pp.cfg, p)
}

// SimulateFaultsDetailFrom replays program p under rc once on a pooled
// pipeline with every fault armed as an independent observer, forking
// from checkpoint ck (nil: from cycle zero), and returns per-fault trial
// records in caller order, including each corrupting fault's
// first-divergent-commit identity. Records are bit-identical to
// per-fault SimulateFaultDetail replays from cycle zero provided every
// fault cycle respects ck's validity margin (CheckpointSet.Nearest):
// consumer capture is resolved from pipeline state alone.
func (pp *Pool) SimulateFaultsDetailFrom(p *prog.Program, rc RunConfig, ck *Checkpoint, faults []Fault) ([]FaultTrial, error) {
	if ck == nil {
		pl, err := pp.get(p)
		if err != nil {
			return nil, err
		}
		out, err := pl.runFaults(rc, faults, false)
		pp.pool.Put(pl)
		return out, err
	}
	if ck.prog != p && ck.progFP != p.Fingerprint() {
		return nil, errors.New("pipe: checkpoint program mismatch")
	}
	pl, err := pp.raw(p)
	if err != nil {
		return nil, err
	}
	if err := pl.Restore(ck); err != nil {
		pp.pool.Put(pl) // Pool.get Resets before reuse, recovering the pipeline
		return nil, err
	}
	out, err := pl.runFaults(rc, faults, true)
	pp.pool.Put(pl)
	return out, err
}

// ResumeGolden continues a checkpointed golden run from ck to completion
// under the same RunConfig, recomputing the result, info and digest from
// the fork point. A correct restore makes these bit-identical to the
// uninterrupted golden run's — the restore-equivalence differential
// tests are built on this.
func (pp *Pool) ResumeGolden(ck *Checkpoint, rc RunConfig) (*avf.Result, GoldenInfo, error) {
	pl, err := pp.raw(ck.prog)
	if err != nil {
		return nil, GoldenInfo{}, err
	}
	if err := pl.Restore(ck); err != nil {
		pp.pool.Put(pl)
		return nil, GoldenInfo{}, err
	}
	pl.digestOn = true
	runErr := pl.resumeLoop(rc)
	var res *avf.Result
	var info GoldenInfo
	if runErr == nil && !pl.acct.measuring {
		runErr = errors.New("pipe: program ended inside warmup window")
	}
	if runErr == nil {
		res = pl.finalize()
		info = GoldenInfo{WindowStart: pl.acct.windowStart, Cycles: res.Cycles, Digest: pl.digest}
	}
	pl.digestOn = false
	pp.pool.Put(pl)
	if runErr != nil {
		return nil, GoldenInfo{}, runErr
	}
	return res, info, nil
}
