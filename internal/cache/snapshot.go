package cache

import "fmt"

// This file implements deep snapshot/restore for the memory hierarchy,
// the cache-side half of pipe checkpointing (DESIGN.md §10). A snapshot
// captures every field Reset would otherwise clear — line residency, LRU
// ordering, per-chunk lifetime state, open ACE interval starts, the
// accumulated ACE totals and the traffic statistics — so a restored
// cache continues bit-identically to the run the snapshot was taken
// from. Snapshots use structure-of-arrays layouts (one flat slice per
// field) so the pipe checkpoint codec can serialise them with plain
// bulk copies.

// CacheState is a deep snapshot of one Cache. All slices are indexed by
// line (geometric order, way-major within a set); ChunkState/ChunkTime
// are flattened line-major with chunks-per-line stride.
type CacheState struct {
	Tag        []uint64
	Valid      []bool
	LRU        []int64
	FillTime   []int64
	LastAceEnd []int64
	Dirty      []uint64
	ChunkState []uint8
	ChunkTime  []int64

	AceChunkCycles uint64
	TagAceCycles   uint64
	WindowStart    int64

	Accesses          uint64
	Misses            uint64
	Writebacks        uint64
	WritebackAccesses uint64
	WritebackMisses   uint64
}

// grow returns s resized to n, reusing capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Snapshot copies the cache's full state into dst (reusing dst's slices
// when possible) and returns dst. A nil dst allocates a fresh state.
func (c *Cache) Snapshot(dst *CacheState) *CacheState {
	if dst == nil {
		dst = &CacheState{}
	}
	n := len(c.lines)
	dst.Tag = grow(dst.Tag, n)
	dst.Valid = grow(dst.Valid, n)
	dst.LRU = grow(dst.LRU, n)
	dst.FillTime = grow(dst.FillTime, n)
	dst.LastAceEnd = grow(dst.LastAceEnd, n)
	dst.Dirty = grow(dst.Dirty, n)
	dst.ChunkState = grow(dst.ChunkState, n*c.cpl)
	dst.ChunkTime = grow(dst.ChunkTime, n*c.cpl)
	for i := range c.lines {
		ln := &c.lines[i]
		dst.Tag[i] = ln.tag
		dst.Valid[i] = ln.valid
		dst.LRU[i] = ln.lru
		dst.FillTime[i] = ln.fillTime
		dst.LastAceEnd[i] = ln.lastAceEnd
		dst.Dirty[i] = ln.dirty
		copy(dst.ChunkState[i*c.cpl:(i+1)*c.cpl], ln.chunkState)
		copy(dst.ChunkTime[i*c.cpl:(i+1)*c.cpl], ln.chunkTime)
	}
	dst.AceChunkCycles = c.aceChunkCycles
	dst.TagAceCycles = c.tagAceCycles
	dst.WindowStart = c.windowStart
	dst.Accesses = c.Accesses
	dst.Misses = c.Misses
	dst.Writebacks = c.Writebacks
	dst.WritebackAccesses = c.WritebackAccesses
	dst.WritebackMisses = c.WritebackMisses
	return dst
}

// Restore overwrites the cache's state with a snapshot taken from a
// cache of identical geometry. Like Reset it disarms all fate watches
// and invalidates the MRU memo; everything else is reinstated exactly.
func (c *Cache) Restore(st *CacheState) error {
	n := len(c.lines)
	if len(st.Tag) != n || len(st.ChunkState) != n*c.cpl {
		return fmt.Errorf("cache %s: snapshot geometry mismatch (%d lines × %d chunks vs %d/%d)",
			c.cfg.Name, len(st.Tag), len(st.ChunkState), n, n*c.cpl)
	}
	for i := range c.lines {
		ln := &c.lines[i]
		ln.tag = st.Tag[i]
		ln.valid = st.Valid[i]
		ln.lru = st.LRU[i]
		ln.fillTime = st.FillTime[i]
		ln.lastAceEnd = st.LastAceEnd[i]
		ln.dirty = st.Dirty[i]
		copy(ln.chunkState, st.ChunkState[i*c.cpl:(i+1)*c.cpl])
		copy(ln.chunkTime, st.ChunkTime[i*c.cpl:(i+1)*c.cpl])
	}
	c.aceChunkCycles = st.AceChunkCycles
	c.tagAceCycles = st.TagAceCycles
	c.windowStart = st.WindowStart
	c.Accesses = st.Accesses
	c.Misses = st.Misses
	c.Writebacks = st.Writebacks
	c.WritebackAccesses = st.WritebackAccesses
	c.WritebackMisses = st.WritebackMisses
	c.memoLine = nil
	c.memoEpoch, c.memoAddr = 0, 0
	c.epoch++
	c.ClearWatches()
	return nil
}

// TLBState is a deep snapshot of one TLB, indexed by entry slot.
type TLBState struct {
	VPN       []uint64
	Valid     []bool
	FillTime  []int64
	LastRead  []int64
	LRU       []int64
	HD1Cycles []uint64
	HD1Since  []int64
	HD1Count  []int32

	AceEntryCycles uint64
	HD1EntryCycles uint64
	WindowStart    int64

	Accesses uint64
	Misses   uint64
}

// Snapshot copies the TLB's full state into dst (reusing dst's slices
// when possible) and returns dst. A nil dst allocates a fresh state.
func (t *TLB) Snapshot(dst *TLBState) *TLBState {
	if dst == nil {
		dst = &TLBState{}
	}
	n := len(t.entries)
	dst.VPN = grow(dst.VPN, n)
	dst.Valid = grow(dst.Valid, n)
	dst.FillTime = grow(dst.FillTime, n)
	dst.LastRead = grow(dst.LastRead, n)
	dst.LRU = grow(dst.LRU, n)
	dst.HD1Cycles = grow(dst.HD1Cycles, n)
	dst.HD1Since = grow(dst.HD1Since, n)
	dst.HD1Count = grow(dst.HD1Count, n)
	for i := range t.entries {
		e := &t.entries[i]
		dst.VPN[i] = e.vpn
		dst.Valid[i] = e.valid
		dst.FillTime[i] = e.fillTime
		dst.LastRead[i] = e.lastRead
		dst.LRU[i] = e.lru
		dst.HD1Cycles[i] = e.hd1Cycles
		dst.HD1Since[i] = e.hd1Since
		dst.HD1Count[i] = int32(e.hd1Count)
	}
	dst.AceEntryCycles = t.aceEntryCycles
	dst.HD1EntryCycles = t.hd1EntryCycles
	dst.WindowStart = t.windowStart
	dst.Accesses = t.Accesses
	dst.Misses = t.Misses
	return dst
}

// Restore overwrites the TLB's state with a snapshot taken from a TLB of
// identical geometry, rebuilding the VPN lookup map and disarming any
// fate watches.
func (t *TLB) Restore(st *TLBState) error {
	if len(st.VPN) != len(t.entries) {
		return fmt.Errorf("tlb %s: snapshot geometry mismatch (%d entries vs %d)",
			t.cfg.Name, len(st.VPN), len(t.entries))
	}
	clear(t.byVPN)
	for i := range t.entries {
		e := &t.entries[i]
		e.vpn = st.VPN[i]
		e.valid = st.Valid[i]
		e.fillTime = st.FillTime[i]
		e.lastRead = st.LastRead[i]
		e.lru = st.LRU[i]
		e.hd1Cycles = st.HD1Cycles[i]
		e.hd1Since = st.HD1Since[i]
		e.hd1Count = int(st.HD1Count[i])
		if e.valid && !t.small {
			t.byVPN[e.vpn] = int32(i)
		}
	}
	t.aceEntryCycles = st.AceEntryCycles
	t.hd1EntryCycles = st.HD1EntryCycles
	t.windowStart = st.WindowStart
	t.Accesses = st.Accesses
	t.Misses = st.Misses
	t.memoValid = false
	t.memoVPN, t.memoIdx = 0, 0
	t.ClearWatches()
	return nil
}

// HierarchyState is a deep snapshot of a full Hierarchy.
type HierarchyState struct {
	IL1  CacheState
	DL1  CacheState
	L2   CacheState
	DTLB TLBState
}

// Snapshot copies the hierarchy's full state into dst (reusing dst's
// buffers when possible) and returns dst. A nil dst allocates.
func (h *Hierarchy) Snapshot(dst *HierarchyState) *HierarchyState {
	if dst == nil {
		dst = &HierarchyState{}
	}
	h.IL1.Snapshot(&dst.IL1)
	h.DL1.Snapshot(&dst.DL1)
	h.L2.Snapshot(&dst.L2)
	h.DTLB.Snapshot(&dst.DTLB)
	return dst
}

// Restore overwrites the hierarchy's state with a snapshot taken from a
// hierarchy of identical configuration.
func (h *Hierarchy) Restore(st *HierarchyState) error {
	if err := h.IL1.Restore(&st.IL1); err != nil {
		return err
	}
	if err := h.DL1.Restore(&st.DL1); err != nil {
		return err
	}
	if err := h.L2.Restore(&st.L2); err != nil {
		return err
	}
	return h.DTLB.Restore(&st.DTLB)
}

// TimestampLead returns the maximum number of cycles any access
// timestamp issued by this hierarchy can run ahead of the pipeline wall
// clock that issued it (the deepest Data path: TLB walk, then an L2 miss
// to memory, then the DL1 fill-touch). Checkpointed fork-replay uses it
// as the validity margin: a checkpoint at cycle C can serve a fault at
// cycle F only when C+lead ≤ F, which guarantees every lifetime
// transition whose interval could contain F executes wall-after C and is
// therefore observed by watches armed at restore time.
func (h *Hierarchy) TimestampLead() int64 { return h.cfg.TimestampLead() }

// TimestampLead is Hierarchy.TimestampLead computed from the
// configuration alone, for callers that plan around checkpoint validity
// without building a memory system.
func (c HierarchyConfig) TimestampLead() int64 {
	return int64(c.DTLB.WalkLatency) + int64(max(c.MemLatency, c.L2.HitLatency)) + int64(c.DL1.HitLatency)
}
