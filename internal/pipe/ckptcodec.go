package pipe

// Binary checkpoint encoder. Campaigns capture no checkpoints: each
// replays its faults in one pass from cycle zero (DESIGN.md §10), so
// nothing decodes this format. MarshalBinary survives because the
// benchmark harness (perfbench) measures the checkpoint footprint
// through it (pipe.checkpoint_kb). The format is a flat little-endian
// field dump, version-prefixed, no compression.
//
// Static-instruction pointers are encoded as indices into the bound
// program (body i ≥ 0, init -(i+1)); pointers that resolve to neither —
// dead ROB slots still holding uops from a previous pooled program —
// encode as a nil sentinel, which is sound because dead slots are never
// read before being fully overwritten by dispatch (only their
// generation counters matter, and those are preserved exactly).

import (
	"errors"
	"math"

	"avfstress/internal/cache"
	"avfstress/internal/isa"
	"avfstress/internal/prog"
)

const (
	ckptMagic = uint32(0x6b637661) // "avck", little-endian
	// ckptVersion versions the encoding; v2 added the per-uop dynamic
	// stream sequence number (first-divergent-commit capture).
	ckptVersion = byte(2)
	staticNil   = int32(math.MinInt32)
)

type ckptEnc struct{ b []byte }

func (e *ckptEnc) u8(v byte)    { e.b = append(e.b, v) }
func (e *ckptEnc) u16(v uint16) { e.b = append(e.b, byte(v), byte(v>>8)) }
func (e *ckptEnc) u32(v uint32) { e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
func (e *ckptEnc) u64(v uint64) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (e *ckptEnc) i16(v int16) { e.u16(uint16(v)) }
func (e *ckptEnc) i32(v int32) { e.u32(uint32(v)) }
func (e *ckptEnc) i64(v int64) { e.u64(uint64(v)) }
func (e *ckptEnc) flag(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *ckptEnc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *ckptEnc) bytes(s []byte) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *ckptEnc) u16s(s []uint16) {
	e.u32(uint32(len(s)))
	for _, v := range s {
		e.u16(v)
	}
}
func (e *ckptEnc) i16s(s []int16) {
	e.u32(uint32(len(s)))
	for _, v := range s {
		e.i16(v)
	}
}
func (e *ckptEnc) i32s(s []int32) {
	e.u32(uint32(len(s)))
	for _, v := range s {
		e.i32(v)
	}
}
func (e *ckptEnc) i64s(s []int64) {
	e.u32(uint32(len(s)))
	for _, v := range s {
		e.i64(v)
	}
}
func (e *ckptEnc) u64s(s []uint64) {
	e.u32(uint32(len(s)))
	for _, v := range s {
		e.u64(v)
	}
}
func (e *ckptEnc) bools(s []bool) {
	e.u32(uint32(len(s)))
	for _, v := range s {
		e.flag(v)
	}
}

// staticIndex maps a program's static-instruction addresses to codec
// indices (body i ≥ 0, init -(i+1)).
func staticIndex(p *prog.Program) map[*isa.Instr]int32 {
	m := make(map[*isa.Instr]int32, len(p.Init)+len(p.Body))
	for i := range p.Init {
		m[&p.Init[i]] = -int32(i) - 1
	}
	for i := range p.Body {
		m[&p.Body[i]] = int32(i)
	}
	return m
}

func encStatic(e *ckptEnc, m map[*isa.Instr]int32, in *isa.Instr) {
	if in == nil {
		e.i32(staticNil)
		return
	}
	if idx, ok := m[in]; ok {
		e.i32(idx)
		return
	}
	e.i32(staticNil) // stale pointer from a previous pooled program
}

func encUopBody(e *ckptEnc, m map[*isa.Instr]int32, u *uop) {
	encStatic(e, m, u.static)
	e.u64(u.addr)
	e.i64(u.dynSeq)
	e.i64(u.dispatchCycle)
	e.i64(u.issueCycle)
	e.i64(u.doneCycle)
	e.i64(u.dataReady)
	e.i64(u.execLatency)
	e.i16(u.destPhys)
	e.i16(u.oldPhys)
	e.i16(u.src[0])
	e.i16(u.src[1])
	e.u8(byte(u.opc))
	e.u8(byte(u.state))
	e.u8(u.pendingSrcs)
	var f uint8
	if u.wrongPath {
		f |= 1 << 0
	}
	if u.ace {
		f |= 1 << 1
	}
	if u.inIQ {
		f |= 1 << 2
	}
	if u.inLQ {
		f |= 1 << 3
	}
	if u.inSQ {
		f |= 1 << 4
	}
	if u.forwarded {
		f |= 1 << 5
	}
	if u.predTaken {
		f |= 1 << 6
	}
	if u.mispred {
		f |= 1 << 7
	}
	e.u8(f)
}

func encEvents(e *ckptEnc, es []event) {
	e.u32(uint32(len(es)))
	for _, ev := range es {
		e.i64(ev.cycle)
		e.i64(ev.seq)
		e.u32(ev.gen)
	}
}

func encRefLists(e *ckptEnc, ls []ckptRefList) {
	e.u32(uint32(len(ls)))
	for _, l := range ls {
		e.i32(l.idx)
		e.u32(uint32(len(l.refs)))
		for _, r := range l.refs {
			e.i64(r.seq)
			e.u32(r.gen)
		}
	}
}

func encCacheState(e *ckptEnc, st *cache.CacheState) {
	e.u64s(st.Tag)
	e.bools(st.Valid)
	e.i64s(st.LRU)
	e.i64s(st.FillTime)
	e.i64s(st.LastAceEnd)
	e.u64s(st.Dirty)
	e.bytes(st.ChunkState)
	e.i64s(st.ChunkTime)
	e.u64(st.AceChunkCycles)
	e.u64(st.TagAceCycles)
	e.i64(st.WindowStart)
	e.u64(st.Accesses)
	e.u64(st.Misses)
	e.u64(st.Writebacks)
	e.u64(st.WritebackAccesses)
	e.u64(st.WritebackMisses)
}

func encTLBState(e *ckptEnc, st *cache.TLBState) {
	e.u64s(st.VPN)
	e.bools(st.Valid)
	e.i64s(st.FillTime)
	e.i64s(st.LastRead)
	e.i64s(st.LRU)
	e.u64s(st.HD1Cycles)
	e.i64s(st.HD1Since)
	e.i32s(st.HD1Count)
	e.u64(st.AceEntryCycles)
	e.u64(st.HD1EntryCycles)
	e.i64(st.WindowStart)
	e.u64(st.Accesses)
	e.u64(st.Misses)
}

// MarshalBinary serialises the checkpoint. The bound program is not
// embedded, only its fingerprint.
func (ck *Checkpoint) MarshalBinary() ([]byte, error) {
	if ck.prog == nil {
		return nil, errors.New("pipe: cannot marshal checkpoint with no program bound")
	}
	m := staticIndex(ck.prog)
	e := &ckptEnc{b: make([]byte, 0, 64<<10)}
	e.u32(ckptMagic)
	e.u8(ckptVersion)
	e.str(ck.cfgFP)
	e.str(ck.progFP)

	e.i64(ck.cycle)
	e.i64(ck.head)
	e.i64(ck.tail)
	e.i32(int32(ck.iqUsed))
	e.i32(int32(ck.lqUsed))
	e.i32(int32(ck.sqUsed))
	e.i64(ck.fetchStallUntil)
	e.i32(int32(ck.wpIdx))
	var f uint8
	if ck.wrongPathMode {
		f |= 1 << 0
	}
	if ck.havePending {
		f |= 1 << 1
	}
	if ck.streamDone {
		f |= 1 << 2
	}
	e.u8(f)
	e.i64(ck.lastCommit)
	e.u64(ck.digest)

	encStatic(e, m, ck.pending.dyn.Static)
	e.i64(ck.pending.dyn.Seq)
	e.i64(ck.pending.dyn.Iter)
	e.u64(ck.pending.dyn.PC)
	e.u64(ck.pending.dyn.Addr)
	e.flag(ck.pending.dyn.Taken)
	e.flag(ck.pending.wrongPath)

	a := &ck.acct
	e.flag(a.measuring)
	for _, v := range []int64{a.windowStart, a.warmupLeft, a.warmupDone,
		a.committed, a.aceCommitted, a.loads, a.stores, a.branches, a.longArith,
		a.fetched, a.wrongPathFetched, a.branchesFetched, a.mispredicts, a.flushed,
		a.issuedALU, a.issuedMul, a.issuedMem, a.issuedBr,
		a.iqAce, a.robAce, a.lqTagAce, a.lqDataAce, a.sqTagAce, a.sqDataAce,
		a.fuStage, a.rfRegCyc, a.occROB, a.occIQ, a.occLQ, a.occSQ} {
		e.i64(v)
	}

	// ROB ring: generation counters for every slot (dead slots' gens are
	// live state — dispatch increments them and event references compare
	// against them), full bodies only for the in-flight window.
	e.u32(uint32(len(ck.rob)))
	for i := range ck.rob {
		e.u32(ck.rob[i].gen)
	}
	mask := int64(len(ck.rob) - 1)
	for seq := ck.head; seq < ck.tail; seq++ {
		encUopBody(e, m, &ck.rob[seq&mask])
	}
	// Rename-map checkpoint rows, likewise window-only (rows are written
	// at dispatch and only read while their branch is in flight).
	for seq := ck.head; seq < ck.tail; seq++ {
		i := seq & mask
		for _, v := range ck.ckpt[i*int64(isa.NumArchRegs) : (i+1)*int64(isa.NumArchRegs)] {
			e.i16(v)
		}
	}

	e.i16s(ck.archMap)
	e.i16s(ck.freeList)
	e.u32(uint32(len(ck.regs)))
	for i := range ck.regs {
		r := &ck.regs[i]
		e.i64(r.readyCycle)
		e.i64(r.writeTime)
		e.i64(r.lastRead)
		var rf uint8
		if r.written {
			rf |= 1 << 0
		}
		if r.aceValue {
			rf |= 1 << 1
		}
		e.u8(rf)
	}

	e.i64(ck.wheelHead)
	encEvents(e, ck.wheelEvents)
	encEvents(e, ck.wheelDue)

	e.u64s(ck.readyWords)
	e.i32(int32(ck.readyCount))
	encRefLists(e, ck.waiters)
	encRefLists(e, ck.blocked)

	e.u64s(ck.dwKeys)
	for i, k := range ck.dwKeys {
		if k != dwEmpty && k != dwTombstone {
			e.i64s(ck.dwVals[i])
		}
	}
	e.i32(int32(ck.dwLive))
	e.i32(int32(ck.dwUsed))

	e.flag(ck.stream.InInit)
	e.i64(int64(ck.stream.Idx))
	e.i64(ck.stream.Iter)
	e.i64(ck.stream.Seq)

	e.bytes(ck.bp.Global)
	e.bytes(ck.bp.Choice)
	e.u16s(ck.bp.LocalH)
	e.bytes(ck.bp.LocalC)
	e.u64(ck.bp.GHist)
	e.u64(ck.bp.Lookups)
	e.u64(ck.bp.Mispredicts)

	encCacheState(e, &ck.mem.IL1)
	encCacheState(e, &ck.mem.DL1)
	encCacheState(e, &ck.mem.L2)
	encTLBState(e, &ck.mem.DTLB)
	return e.b, nil
}
