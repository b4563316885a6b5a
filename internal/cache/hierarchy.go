package cache

import "fmt"

// HierarchyConfig assembles the full memory system.
type HierarchyConfig struct {
	IL1, DL1, L2 Config
	DTLB         TLBConfig
	// MemLatency is the L2-miss penalty to main memory, in cycles.
	MemLatency int
}

// Fingerprint returns a canonical description of the whole hierarchy
// geometry for internal/simcache keys.
func (c HierarchyConfig) Fingerprint() string {
	return fmt.Sprintf("mem{il1=%s dl1=%s l2=%s dtlb=%s memlat=%d}",
		c.IL1.Fingerprint(), c.DL1.Fingerprint(), c.L2.Fingerprint(),
		c.DTLB.Fingerprint(), c.MemLatency)
}

// Validate reports the first configuration error.
func (c HierarchyConfig) Validate() error {
	for _, cc := range []Config{c.IL1, c.DL1, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if err := c.DTLB.Validate(); err != nil {
		return err
	}
	if c.MemLatency <= 0 {
		return fmt.Errorf("hierarchy: non-positive memory latency %d", c.MemLatency)
	}
	// The pipeline schedules completion events strictly in the future, so
	// every level must cost at least one cycle.
	for _, cc := range []Config{c.IL1, c.DL1, c.L2} {
		if cc.HitLatency < 1 {
			return fmt.Errorf("hierarchy: %s hit latency %d must be >= 1", cc.Name, cc.HitLatency)
		}
	}
	if c.DL1.LineBytes != c.L2.LineBytes || c.IL1.LineBytes != c.L2.LineBytes {
		return fmt.Errorf("hierarchy: L1/L2 line sizes must match (IL1=%d DL1=%d L2=%d)",
			c.IL1.LineBytes, c.DL1.LineBytes, c.L2.LineBytes)
	}
	// The pipeline's access contract (DESIGN.md §5): 8-byte aligned data
	// accesses, 4-byte aligned fetches, whole-line refills, and DL1 dirty
	// masks applied to the L2. The chunk granules must divide those
	// access sizes for chunk tracking to be lossless.
	if cb := c.DL1.EffectiveChunkBytes(); 8%cb != 0 {
		return fmt.Errorf("hierarchy: DL1 chunk size %d does not divide the 8-byte data access granule", cb)
	}
	if cb := c.IL1.EffectiveChunkBytes(); 4%cb != 0 {
		return fmt.Errorf("hierarchy: IL1 chunk size %d does not divide the 4-byte fetch granule", cb)
	}
	if l2, dl1 := c.L2.EffectiveChunkBytes(), c.DL1.EffectiveChunkBytes(); dl1%l2 != 0 {
		return fmt.Errorf("hierarchy: L2 chunk size %d does not divide the DL1 chunk size %d (writeback masks)", l2, dl1)
	}
	return nil
}

// Hierarchy composes IL1, DL1, a unified writeback L2 and the DTLB, and
// routes accesses through them with cumulative latency accounting.
// Bandwidth between levels is not modelled (accesses are independent);
// the stressmark's pointer chase serialises its L2 misses through the
// register dependence instead, exactly as in the paper.
//
// Each access does one associative lookup per level touched: L1 hits
// resolve in a single Access walk, L1 misses combine the L2
// probe/fill/whole-line read into one ReadLine walk and the L1
// fill+demand touch into one FillTouch, and dirty L1 victims land in
// the L2 via one WriteMask walk.
type Hierarchy struct {
	IL1  *Cache
	DL1  *Cache
	L2   *Cache
	DTLB *TLB
	cfg  HierarchyConfig

	dl1Hit, l2Hit, memLat int64
	lineMask              uint64 // shared L1/L2 line size - 1
}

// NewHierarchy builds the memory system.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Hierarchy{
		IL1:      MustNew(cfg.IL1),
		DL1:      MustNew(cfg.DL1),
		L2:       MustNew(cfg.L2),
		DTLB:     MustNewTLB(cfg.DTLB),
		cfg:      cfg,
		dl1Hit:   int64(cfg.DL1.HitLatency),
		l2Hit:    int64(cfg.L2.HitLatency),
		memLat:   int64(cfg.MemLatency),
		lineMask: uint64(cfg.L2.LineBytes - 1),
	}, nil
}

// Data performs a data access of size bytes at addr issued at time now
// and returns the total latency in cycles (including the DL1 hit
// latency) and whether the access missed DL1 and L2.
func (h *Hierarchy) Data(now int64, addr uint64, size int, write bool) (latency int, dl1Miss, l2Miss bool) {
	t := now + int64(h.DTLB.Access(now, addr))

	if h.DL1.Access(t+h.dl1Hit, addr, size, write) {
		return int(t + h.dl1Hit - now), false, false
	}
	dl1Miss = true
	la := addr &^ h.lineMask
	// DL1 miss: one combined L2 walk — probe, fill on miss, and the
	// whole-line read of the fill data moving up (fill→read or read→read
	// in L2 is ACE).
	if h.L2.ReadLine(t+h.l2Hit, t+h.memLat, la) {
		t += h.l2Hit
	} else {
		l2Miss = true
		t += h.memLat
	}
	// Fill DL1 and apply the demand access, pushing any dirty victim
	// down into L2.
	wb, dirty := h.DL1.FillTouch(t, t+h.dl1Hit, addr, size, write)
	if dirty {
		h.L2.WriteMask(t, wb.Addr, wb.DirtyMask)
	}
	return int(t + h.dl1Hit - now), dl1Miss, l2Miss
}

// Fetch performs an instruction fetch of one line-resident access at pc
// issued at time now and returns the added latency beyond the IL1 hit
// path (0 on an IL1 hit).
func (h *Hierarchy) Fetch(now int64, pc uint64) (extraLatency int) {
	if h.IL1.Access(now, pc, 4, false) {
		return 0
	}
	t := now
	la := pc &^ h.lineMask
	if h.L2.ReadLine(t+h.l2Hit, t+h.memLat, la) {
		t += h.l2Hit
	} else {
		t += h.memLat
	}
	wb, dirty := h.IL1.FillTouch(t, t, pc, 4, false)
	if dirty {
		// Instruction lines are never dirty in this model; defensive.
		h.L2.WriteMask(t, wb.Addr, wb.DirtyMask)
	}
	return int(t - now)
}

// Finalize closes all lifetime intervals at time now.
func (h *Hierarchy) Finalize(now int64) {
	h.IL1.Finalize(now)
	h.DL1.Finalize(now)
	h.L2.Finalize(now)
	h.DTLB.Finalize(now)
}

// ResetACE restarts ACE measurement in all levels at time now.
func (h *Hierarchy) ResetACE(now int64) {
	h.IL1.ResetACE(now)
	h.DL1.ResetACE(now)
	h.L2.ResetACE(now)
	h.DTLB.ResetACE(now)
}

// Reset returns every level to its power-on state without reallocating,
// so one Hierarchy can be reused across simulations of the same
// configuration (see pipe.Pipeline.Reset).
func (h *Hierarchy) Reset() {
	h.IL1.Reset()
	h.DL1.Reset()
	h.L2.Reset()
	h.DTLB.Reset()
}

// ResetStats clears hit/miss counters in all levels.
func (h *Hierarchy) ResetStats() {
	h.IL1.ResetStats()
	h.DL1.ResetStats()
	h.L2.ResetStats()
	h.DTLB.ResetStats()
}
