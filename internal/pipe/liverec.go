package pipe

// Register-file dead-interval recording (DESIGN.md §12). Static
// liveness (internal/liveness) proves certain static definitions dead
// — no ACE instruction ever reads the value before redefinition — but
// which physical register a definition lands in is decided dynamically
// by the free list. The golden run bridges that gap: a liveRecorder is
// armed during SimulateGoldenRecorded and logs, per physical slot, the
// occupancy intervals during which the slot holds a correct-path
// instance of a statically dead definition. Every (slot, cycle) fault
// target inside such an interval is masked by construction:
//
//   - before the value's writeTime the slot is not yet live
//     (applyFault sees writeTime > cycle);
//   - after it, the armed fate watch resolves on lastRead > cycle, and
//     a dead definition's lastRead never advances past its writeTime
//     (only ACE readers advance lastRead, and it has none).
//
// The recorder is a pure observer: it never mutates simulator state,
// so a recorded golden run is bit-identical to an unrecorded one, and
// the recorded intervals are independent of whether the campaign that
// triggered the run has pruning enabled — which keeps golden-info
// cache blobs byte-stable across knob settings.

import (
	"avfstress/internal/avf"
	"avfstress/internal/isa"
	"avfstress/internal/prog"
)

// RFDeadInterval is one recorded dead occupancy of a physical register
// slot: [Start, End) in absolute cycles, End == -1 when the occupancy
// was still open at the end of the run.
type RFDeadInterval struct {
	Slot  int16
	Start int64
	End   int64
}

type liveRecorder struct {
	dead map[*isa.Instr]bool
	open []int64 // per slot: start cycle of an open dead occupancy, -1 none
	out  []RFDeadInterval
}

func newLiveRecorder(physRegs int, dead map[*isa.Instr]bool) *liveRecorder {
	rec := &liveRecorder{dead: dead, open: make([]int64, physRegs)}
	for i := range rec.open {
		rec.open[i] = -1
	}
	return rec
}

// onWrite observes a correct-path destination write at issue.
func (rec *liveRecorder) onWrite(p int16, cycle int64, in *isa.Instr) {
	if rec.dead[in] {
		rec.open[p] = cycle
	}
}

// onRelease observes the slot's release at the overwriting
// instruction's commit, closing any open dead occupancy.
func (rec *liveRecorder) onRelease(p int16, cycle int64) {
	if st := rec.open[p]; st >= 0 {
		rec.open[p] = -1
		rec.out = append(rec.out, RFDeadInterval{Slot: p, Start: st, End: cycle})
	}
}

// finish closes still-open occupancies as open-ended intervals and
// returns the recorded set (deterministic order: closed intervals in
// release order, then open ones by slot).
func (rec *liveRecorder) finish() []RFDeadInterval {
	for p, st := range rec.open {
		if st >= 0 {
			rec.open[p] = -1
			rec.out = append(rec.out, RFDeadInterval{Slot: int16(p), Start: st, End: -1})
		}
	}
	return rec.out
}

// SimulateGoldenRecorded runs program p under rc on a pooled pipeline
// like Simulate, additionally returning the golden-run facts
// fault-injection campaigns replay against: measurement-window start,
// window length and the committed-state digest. It also snapshots the
// run's full state every `interval` cycles of the measured window (0
// selects the automatic interval; negative disables capture and returns
// a nil set) and maps the statically dead definitions in deadDefs (nil:
// none) onto physical-register occupancy intervals, returned in
// GoldenInfo.RFDead. Capture and recording are pure observers: result,
// window and digest do not depend on interval or deadDefs.
func (pp *Pool) SimulateGoldenRecorded(p *prog.Program, rc RunConfig, interval int64, deadDefs map[*isa.Instr]bool) (*avf.Result, GoldenInfo, *CheckpointSet, error) {
	pl, err := pp.get(p)
	if err != nil {
		return nil, GoldenInfo{}, nil, err
	}
	var rec *ckptRecorder
	if interval >= 0 {
		if interval == 0 {
			interval = autoCheckpointInterval
		}
		rec = &ckptRecorder{interval: interval}
		pl.ckptRec = rec
	}
	lrec := newLiveRecorder(len(pl.regs), deadDefs)
	pl.liveRec = lrec
	pl.digestOn = true
	pl.digest = fnvOffset64
	res, runErr := pl.Run(rc)
	info := GoldenInfo{Digest: pl.digest}
	lead := pl.mem.TimestampLead()
	pl.digestOn = false
	pl.ckptRec = nil
	pl.liveRec = nil
	if runErr == nil {
		info.WindowStart = pl.acct.windowStart
		info.Cycles = res.Cycles
		info.RFDead = lrec.finish()
	}
	pp.pool.Put(pl)
	if runErr != nil {
		return nil, GoldenInfo{}, nil, runErr
	}
	var set *CheckpointSet
	if rec != nil {
		set = &CheckpointSet{Interval: rec.interval, Lead: lead, Checkpoints: rec.cks}
	}
	return res, info, set, nil
}
