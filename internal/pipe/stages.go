package pipe

import (
	"math/bits"

	"avfstress/internal/isa"
	"avfstress/internal/prog"
)

// commit retires up to CommitWidth completed instructions in order,
// releasing resources and folding their ACE intervals into the
// accumulators. Returns the number committed.
func (pl *Pipeline) commit() int {
	n := 0
	for n < pl.core.CommitWidth && pl.head < pl.tail {
		u := pl.at(pl.head)
		if u.state != sDone {
			break
		}
		if u.wrongPath {
			// Wrong-path uops never reach the ROB head: they are always
			// flushed when their branch resolves first. Defensive check.
			panic("pipe: wrong-path uop at commit")
		}
		if u.op() == isa.OpStore {
			// The architectural write happens at retire.
			pl.mem.Data(pl.now, u.addr, 8, true)
			pl.dropStore(u.addr>>3, false)
		}
		if u.oldPhys != noReg {
			if pl.inj != nil && pl.inj.rfOpen > 0 {
				pl.injRegRelease(u.oldPhys)
			}
			if pl.liveRec != nil {
				pl.liveRec.onRelease(u.oldPhys, pl.now)
			}
			pl.releaseReg(u.oldPhys)
		}
		pl.acct.onCommit(pl, u)
		if pl.digestOn {
			pl.digestCommit(u)
			if pl.inj != nil {
				pl.injMarkCommit(u)
			}
		}
		if u.inLQ {
			pl.lqUsed--
		}
		if u.inSQ {
			pl.sqUsed--
		}
		if u.inIQ {
			// Completed instructions have always left the IQ.
			panic("pipe: committed uop still in IQ")
		}
		pl.head++
		n++
		pl.countCommit(u)
	}
	return n
}

// countCommit advances the committed-instruction counters and flips the
// pipeline into measurement mode at the end of warmup.
func (pl *Pipeline) countCommit(u *uop) {
	if !pl.acct.measuring {
		pl.acct.warmupDone++
		if pl.acct.warmupDone >= pl.acct.warmupLeft {
			pl.startMeasurement()
		}
		return
	}
	pl.acct.committed++
	switch u.op() {
	case isa.OpLoad:
		pl.acct.loads++
	case isa.OpStore:
		pl.acct.stores++
	case isa.OpBranch:
		pl.acct.branches++
	case isa.OpMul:
		pl.acct.longArith++
	}
	if u.ace {
		pl.acct.aceCommitted++
	}
}

// complete moves finished executions to done and handles branch
// resolution (misprediction flush). Returns the number of completions.
//
// Completion events pop in (cycle, seq) order and the run loop never
// advances past a pending completion, so every live event popped here is
// due exactly now and the uops are visited oldest first — the same order
// as the seed core's head→tail scan.
func (pl *Pipeline) complete() int {
	if !pl.compW.hasDue(pl.now) {
		return 0
	}
	n := 0
	w := &pl.compW
	for {
		if w.dueIdx >= len(w.due) {
			if !w.beginNextBucket(pl.now) {
				break
			}
		}
		e := w.due[w.dueIdx]
		w.dueIdx++
		u, ok := pl.live(e.seq, e.gen)
		if !ok || u.state != sIssued {
			continue // flushed or superseded; discard
		}
		u.state = sDone
		n++
		if u.destPhys != noReg {
			// The result is ready exactly now: wake parked consumers.
			pl.broadcast(u.destPhys)
		}
		if u.opc == isa.OpStore {
			// Loads disambiguation-blocked on this store become issuable
			// exactly now: return the live ones to the ready set (stale
			// refs from flushed loads are dropped here).
			if i := e.seq & pl.robMask; len(pl.blockedOn[i]) > 0 {
				for _, ref := range pl.blockedOn[i] {
					if c, ok := pl.live(ref.seq, ref.gen); ok && c.state == sWaiting {
						pl.readyB.set(ref.seq & pl.robMask)
					}
				}
				pl.blockedOn[i] = pl.blockedOn[i][:0]
			}
		}
		if u.op() == isa.OpBranch && u.mispred && !u.wrongPath {
			pl.flushAfter(e.seq)
			pl.fetchStallUntil = pl.now + int64(pl.core.MispredictPenalty)
			pl.wrongPathMode = false
			return n // everything younger was squashed; their events die lazily
		}
	}
	return n
}

// flushAfter squashes every uop younger than seq, restoring the rename
// map from the branch's checkpoint, returning physical registers and
// clearing ready bits. Scheduled completion events, parked waiters and
// blocked-load refs of squashed uops are not removed here; they are
// discarded when popped, via the generation check.
func (pl *Pipeline) flushAfter(seq int64) {
	copy(pl.archMap, pl.ckpt[seq&pl.robMask])
	for s := pl.tail - 1; s > seq; s-- {
		u := pl.at(s)
		pl.readyB.clear(s & pl.robMask)
		if u.destPhys != noReg {
			// The squashed value is un-ACE; reset and return the register.
			pl.regs[u.destPhys] = physReg{readyCycle: farAway}
			pl.freeList = append(pl.freeList, u.destPhys)
		}
		if u.inIQ {
			pl.iqUsed--
		}
		if u.inLQ {
			pl.lqUsed--
		}
		if u.inSQ {
			pl.sqUsed--
			if !u.wrongPath {
				pl.dropStore(u.addr>>3, true)
			}
		}
		pl.acct.flushed++
	}
	pl.tail = seq + 1
	pl.havePending = false
}

// issue issues ready instructions, oldest first, bounded by the issue
// width, the memory-issue limit and functional-unit counts. Returns the
// number issued.
//
// Only uops whose operands have all become ready are examined: the
// ready bitmap is walked from the head slot in sequence order. Uops
// that lose a resource race (FU counts, memory ports, issue width) keep
// their ready bit for the next cycle, and loads blocked behind an older
// incomplete same-address store are parked on that store's ROB slot
// until its completion — both preserving the seed core's oldest-first
// selection exactly.
func (pl *Pipeline) issue() int {
	r := &pl.readyB
	if r.count == 0 {
		return 0
	}
	issued, memIssued, aluIssued, mulIssued := 0, 0, 0, 0
	mask := pl.robMask
	start := pl.head & mask
	nw := int64(len(r.words))
	wi := start >> 6
	w := r.words[wi] &^ (1<<uint(start&63) - 1)
	for k := int64(0); ; {
		for w != 0 {
			b := int64(bits.TrailingZeros64(w))
			w &= w - 1
			slot := wi<<6 + b
			u := &pl.rob[slot]
			if u.state != sWaiting {
				// Bits are cleared eagerly at issue/park/flush; defensive.
				r.clear(slot)
				continue
			}
			if issued >= pl.core.IssueWidth {
				return issued // remaining bits stay set for the next cycle
			}
			seq := pl.head + ((slot - start) & mask)
			op := u.opc
			switch op {
			case isa.OpAdd:
				if aluIssued >= pl.core.NumALUs {
					continue // bit stays set
				}
			case isa.OpMul:
				if mulIssued >= pl.core.NumMuls {
					continue
				}
			case isa.OpLoad, isa.OpStore:
				if memIssued >= pl.core.MemIssuePerCycle {
					continue
				}
			}
			if op == isa.OpLoad {
				blocked, blockSeq, fwd := pl.loadMemCheck(seq, u)
				if blocked {
					// Park on the blocking store's ROB slot instead of
					// staying ready: the store's completion re-readies the
					// load at the cycle it becomes issuable, so it is not
					// re-examined on every cycle of a (possibly hundreds of
					// cycles long) miss shadow.
					r.clear(slot)
					i := blockSeq & mask
					pl.blockedOn[i] = append(pl.blockedOn[i], readyRef{seq: seq, gen: u.gen})
					continue
				}
				u.forwarded = fwd
			}
			// Issue.
			r.clear(slot)
			u.state = sIssued
			u.issueCycle = pl.now
			if u.inIQ {
				u.inIQ = false
				pl.iqUsed--
			}
			issued++
			if pl.acct.measuring {
				switch op {
				case isa.OpAdd:
					pl.acct.issuedALU++
				case isa.OpMul:
					pl.acct.issuedMul++
				case isa.OpLoad, isa.OpStore:
					pl.acct.issuedMem++
				case isa.OpBranch:
					pl.acct.issuedBr++
				}
			}
			switch op {
			case isa.OpAdd:
				aluIssued++
				u.execLatency = int64(pl.core.ALULatency)
				u.doneCycle = pl.now + u.execLatency
			case isa.OpMul:
				mulIssued++
				u.execLatency = int64(pl.core.MulLatency)
				u.doneCycle = pl.now + u.execLatency
			case isa.OpBranch:
				u.execLatency = 1
				u.doneCycle = pl.now + 1
			case isa.OpLoad:
				memIssued++
				switch {
				case u.wrongPath:
					u.doneCycle = pl.now + int64(pl.cfg.Mem.DL1.HitLatency)
				case u.forwarded:
					u.doneCycle = pl.now + 1
				default:
					lat, _, _ := pl.mem.Data(pl.now, u.addr, 8, false)
					u.doneCycle = pl.now + int64(lat)
				}
				u.dataReady = u.doneCycle
			case isa.OpStore:
				memIssued++
				u.execLatency = 1
				u.doneCycle = pl.now + 1
			}
			pl.compW.push(event{cycle: u.doneCycle, seq: seq, gen: u.gen})
			// Operand reads extend the producers' ACE intervals.
			if u.ace {
				for si, s := range u.src {
					if s != noReg && pl.regs[s].lastRead < pl.now {
						pl.regs[s].lastRead = pl.now
						if pl.inj != nil && pl.inj.rfOpen > 0 {
							pl.injNoteRead(s, u, int8(si))
						}
					}
				}
			}
			// Result announcement: later-dispatched consumers see the known
			// ready cycle; already-parked waiters are woken by broadcast()
			// when the completion event fires at exactly that cycle.
			if u.destPhys != noReg {
				reg := &pl.regs[u.destPhys]
				reg.readyCycle = u.doneCycle
				reg.written = true
				reg.aceValue = u.ace
				reg.writeTime = u.doneCycle
				reg.lastRead = u.doneCycle
				if pl.liveRec != nil && !u.wrongPath {
					pl.liveRec.onWrite(u.destPhys, pl.now, u.static)
				}
			}
		}
		k++
		if k > nw {
			break
		}
		wi = (wi + 1) & (nw - 1)
		w = r.words[wi]
		if wi == start>>6 {
			// Wrapped back to the first word: only bits before start.
			w &= 1<<uint(start&63) - 1
		}
	}
	return issued
}

func (pl *Pipeline) ready(r int16) bool {
	return r == noReg || pl.regs[r].readyCycle <= pl.now
}

// loadMemCheck applies perfect memory disambiguation against older
// in-flight stores: a load is blocked while an older overlapping store
// has not yet captured its data (blockSeq names that store), and
// forwards from the youngest older completed overlapping store. The
// doubleword store index makes this one map lookup plus a scan of the
// (almost always single-entry) same-address list, instead of a walk over
// the whole ROB window.
func (pl *Pipeline) loadMemCheck(seq int64, u *uop) (blocked bool, blockSeq int64, forwarded bool) {
	if u.wrongPath {
		return false, 0, false
	}
	l := pl.dwStores.lookup(u.addr >> 3)
	for i := len(l) - 1; i >= 0; i-- {
		if l[i] < seq {
			if pl.at(l[i]).state != sDone {
				return true, l[i], false
			}
			return false, 0, true
		}
	}
	return false, 0, false
}

// dispatch fetches, renames and inserts up to MapWidth instructions.
// Returns the number dispatched.
func (pl *Pipeline) dispatch() int {
	for n := 0; n < pl.core.MapWidth; n++ {
		if pl.now < pl.fetchStallUntil {
			return n
		}
		it, ok := pl.nextFetch()
		if !ok {
			return n
		}
		u0 := &it.dyn
		op := u0.Static.Op
		// Structural checks; on failure push the instruction back.
		if pl.robCount() >= int(pl.robCap) ||
			(op != isa.OpNop && pl.iqUsed >= pl.core.IQEntries) ||
			(op == isa.OpLoad && pl.lqUsed >= pl.core.LQEntries) ||
			(op == isa.OpStore && pl.sqUsed >= pl.core.SQEntries) ||
			(isa.WritesDest(u0.Static) && len(pl.freeList) == 0) {
			pl.havePending = true
			return n
		}
		if !it.wrongPath {
			// Instruction fetch from the IL1 (wrong-path fetch does not
			// pollute the caches in this model).
			if extra := pl.mem.Fetch(pl.now, u0.PC); extra > 0 {
				pl.fetchStallUntil = pl.now + int64(extra)
				pl.havePending = true
				return n
			}
		}
		seq := pl.tail
		pl.tail++
		u := pl.at(seq)
		if l := pl.blockedOn[seq&pl.robMask]; len(l) > 0 {
			// Stale parked loads of a flushed previous occupant: anything
			// parked on a flushed store was younger and flushed with it.
			pl.blockedOn[seq&pl.robMask] = l[:0]
		}
		pl.readyB.clear(seq & pl.robMask) // defensive; flush already cleared it
		// Field-wise re-initialisation (every field is written) instead of
		// a composite-literal assignment: the struct is large enough that
		// the literal compiles to a temp plus a bulk copy.
		u.static = u0.Static
		u.addr = u0.Addr
		u.dynSeq = u0.Seq
		u.wrongPath = it.wrongPath
		u.opc = op
		u.ace = !it.wrongPath && !u0.Static.UnACE && op != isa.OpNop
		u.state = sWaiting
		u.gen++
		u.pendingSrcs = 0
		u.destPhys = noReg
		u.oldPhys = noReg
		u.src[0], u.src[1] = noReg, noReg
		u.inIQ, u.inLQ, u.inSQ = false, false, false
		u.dispatchCycle = pl.now
		u.issueCycle = 0
		u.doneCycle = farAway
		u.dataReady = 0
		u.execLatency = 0
		u.forwarded = false
		u.predTaken = false
		u.mispred = false
		pl.rename(seq, u)
		switch op {
		case isa.OpNop:
			u.state = sDone
			u.doneCycle = pl.now
		case isa.OpLoad:
			u.inIQ = true
			pl.iqUsed++
			u.inLQ = true
			pl.lqUsed++
		case isa.OpStore:
			u.inIQ = true
			pl.iqUsed++
			u.inSQ = true
			pl.sqUsed++
			if !it.wrongPath {
				pl.pushStore(u0.Addr>>3, seq)
			}
		default:
			u.inIQ = true
			pl.iqUsed++
		}
		if u.state == sWaiting && u.pendingSrcs == 0 {
			pl.readyB.set(seq & pl.robMask)
		}
		if op == isa.OpBranch && !it.wrongPath {
			pred := pl.bp.Predict(u0.PC)
			correct := pl.bp.Update(u0.PC, u0.Taken)
			u.predTaken = pred
			u.mispred = !correct
			copy(pl.ckpt[seq&pl.robMask], pl.archMap)
			if u.mispred {
				pl.wrongPathMode = true
				pl.wpIdx = pl.wpIndexAfter(u0)
				pl.acct.mispredicts++
			}
			pl.acct.branchesFetched++
		}
		if it.wrongPath {
			pl.acct.wrongPathFetched++
		}
		pl.acct.fetched++
	}
	return pl.core.MapWidth
}

// rename maps source registers, counts the not-yet-ready ones (parking
// the uop on each pending source's waiter list, resolved by broadcast at
// the producer's completion), and allocates a destination register. The
// source mapping is read before the destination allocation overwrites
// the rename map, so self-referencing instructions (the pointer chase)
// see the previous producer.
func (pl *Pipeline) rename(seq int64, u *uop) {
	in := u.static
	var srcs [2]isa.Reg
	ns := 0
	switch in.Op {
	case isa.OpAdd, isa.OpMul:
		srcs[ns] = in.Src1
		ns++
		if in.RegReg {
			srcs[ns] = in.Src2
			ns++
		}
	case isa.OpLoad, isa.OpBranch:
		srcs[ns] = in.Src1
		ns++
	case isa.OpStore:
		srcs[0], srcs[1] = in.Src1, in.Src2
		ns = 2
	}
	pending := uint8(0)
	for i := 0; i < ns; i++ {
		if srcs[i] == isa.RZero {
			continue
		}
		p := pl.archMap[srcs[i]]
		u.src[i] = p
		if pl.regs[p].readyCycle > pl.now {
			pending++
			pl.waiters[p] = append(pl.waiters[p], waiterRef{seq: seq, gen: u.gen})
		}
	}
	u.pendingSrcs = pending
	if isa.WritesDest(in) {
		p := pl.freeList[len(pl.freeList)-1]
		pl.freeList = pl.freeList[:len(pl.freeList)-1]
		u.oldPhys = pl.archMap[in.Dest]
		u.destPhys = p
		pl.archMap[in.Dest] = p
		// Only readyCycle and written need resetting: the remaining
		// physReg fields are read solely when written is true, and issue
		// rewrites them all before setting it.
		r := &pl.regs[p]
		r.readyCycle = farAway
		r.written = false
	}
}

// nextFetch stages the next instruction to dispatch in pl.pending — the
// pushed-back one, a synthetic wrong-path instruction, or the next
// real-stream one — and returns a pointer to it. The item stays staged
// until dispatch succeeds, so a structural-hazard pushback is just
// havePending = true with no copying.
func (pl *Pipeline) nextFetch() (*fetchItem, bool) {
	if pl.havePending {
		pl.havePending = false
		return &pl.pending, true
	}
	if pl.wrongPathMode {
		body := pl.p.Body
		in := &body[pl.wpIdx]
		d := &pl.pending.dyn
		d.Static = in
		d.Seq, d.Iter = -1, -1
		d.PC = prog.PCOf(pl.wpIdx)
		d.Addr, d.Taken = 0, false
		pl.pending.wrongPath = true
		pl.wpIdx++
		if pl.wpIdx == len(body) {
			pl.wpIdx = 0
		}
		return &pl.pending, true
	}
	if pl.streamDone {
		return nil, false
	}
	pl.pending.wrongPath = false
	if !pl.stream.NextInto(&pl.pending.dyn) {
		pl.streamDone = true
		return nil, false
	}
	return &pl.pending, true
}

// wpIndexAfter picks where wrong-path fetch starts: the body instruction
// following the mispredicted branch (the not-taken path of a taken
// backedge, or the fall-through clone for a reconvergent branch).
func (pl *Pipeline) wpIndexAfter(d *prog.Dyn) int {
	idx := int((d.PC - prog.BodyBase) / isa.InstrBytes)
	if idx < 0 || idx >= len(pl.p.Body) {
		return 0
	}
	if idx+1 == len(pl.p.Body) {
		return 0
	}
	return idx + 1
}

// releaseReg frees a physical register at commit of the overwriting
// instruction, folding its ACE interval into the RF accumulator. An
// armed register-file fate watch is resolved by the caller *before*
// this runs (injRegRelease) — hook-free so releaseReg stays inlinable
// in the commit loop.
func (pl *Pipeline) releaseReg(p int16) {
	pl.acct.closeReg(pl, &pl.regs[p])
	pl.regs[p] = physReg{readyCycle: farAway}
	pl.freeList = append(pl.freeList, p)
}
