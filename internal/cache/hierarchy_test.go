package cache

import "testing"

// tableIMem replicates the paper's Table I memory system (uarch.Baseline
// cannot be imported here: uarch depends on this package).
func tableIMem() HierarchyConfig {
	return HierarchyConfig{
		IL1: Config{Name: "IL1", SizeBytes: 64 << 10, LineBytes: 64, Ways: 2, HitLatency: 1},
		DL1: Config{Name: "DL1", SizeBytes: 64 << 10, LineBytes: 64, Ways: 2, HitLatency: 3},
		L2:  Config{Name: "L2", SizeBytes: 1 << 20, LineBytes: 64, Ways: 1, HitLatency: 7},
		DTLB: TLBConfig{Name: "DTLB", Entries: 256, PageBytes: 8 << 10,
			EntryBits: 80, WalkLatency: 30},
		MemLatency: 200,
	}
}

// testHierarchy builds a small hierarchy with known latencies:
// DL1 hit 3, L2 hit 7, memory 100, walk 30.
func testHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(HierarchyConfig{
		IL1:        Config{Name: "il1", SizeBytes: 1 << 10, LineBytes: 64, Ways: 2, HitLatency: 1},
		DL1:        Config{Name: "dl1", SizeBytes: 1 << 10, LineBytes: 64, Ways: 2, HitLatency: 3},
		L2:         Config{Name: "l2", SizeBytes: 8 << 10, LineBytes: 64, Ways: 1, HitLatency: 7},
		DTLB:       TLBConfig{Name: "tlb", Entries: 4, PageBytes: 8 << 10, EntryBits: 80, WalkLatency: 30},
		MemLatency: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyValidation(t *testing.T) {
	cfg := tableIMem()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.MemLatency = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero memory latency accepted")
	}
	cfg = tableIMem()
	cfg.DL1.LineBytes = 32
	if err := cfg.Validate(); err == nil {
		t.Error("mismatched line sizes accepted")
	}
	cfg = tableIMem()
	cfg.DL1.HitLatency = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero DL1 hit latency accepted (completion events must be strictly future)")
	}
}

func TestHierarchyChunkValidation(t *testing.T) {
	// The access contract: DL1 chunks divide the 8-byte data granule,
	// IL1 chunks divide the 4-byte fetch granule, L2 chunks divide DL1's
	// (writeback masks).
	cfg := tableIMem()
	cfg.IL1.ChunkBytes, cfg.DL1.ChunkBytes, cfg.L2.ChunkBytes = 4, 8, 8
	if err := cfg.Validate(); err != nil {
		t.Fatalf("production chunk set rejected: %v", err)
	}
	bad := []func(*HierarchyConfig){
		func(c *HierarchyConfig) { c.DL1.ChunkBytes = 16 },                     // > data granule
		func(c *HierarchyConfig) { c.IL1.ChunkBytes = 8 },                      // > fetch granule
		func(c *HierarchyConfig) { c.DL1.ChunkBytes = 4; c.L2.ChunkBytes = 8 }, // L2 ∤ DL1
	}
	for i, mut := range bad {
		c := tableIMem()
		c.IL1.ChunkBytes, c.DL1.ChunkBytes, c.L2.ChunkBytes = 4, 8, 8
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad chunk combination %d accepted", i)
		}
	}
}

func TestDataLatencyLadder(t *testing.T) {
	h := testHierarchy(t)
	// Cold access: TLB walk (30) + memory (100) + DL1 fill + DL1 hit (3).
	lat, dl1Miss, l2Miss := h.Data(0, 0x1000, 8, false)
	if !dl1Miss || !l2Miss {
		t.Fatal("cold access should miss both levels")
	}
	if lat != 30+100+3 {
		t.Errorf("cold latency %d, want 133", lat)
	}
	// Re-access: everything hits.
	lat, dl1Miss, l2Miss = h.Data(200, 0x1000, 8, false)
	if dl1Miss || l2Miss || lat != 3 {
		t.Errorf("warm access: lat=%d dl1Miss=%v l2Miss=%v", lat, dl1Miss, l2Miss)
	}
	// Evict from DL1 only (fill conflicting lines): next access is an L2 hit.
	h.Data(300, 0x1000+1024, 8, false)
	h.Data(310, 0x1000+2048, 8, false)
	lat, dl1Miss, l2Miss = h.Data(400, 0x1000, 8, false)
	if !dl1Miss || l2Miss {
		t.Fatalf("expected DL1 miss / L2 hit, got dl1Miss=%v l2Miss=%v", dl1Miss, l2Miss)
	}
	if lat != 7+3 {
		t.Errorf("L2-hit latency %d, want 10", lat)
	}
}

func TestDirtyWritebackReachesL2(t *testing.T) {
	h := testHierarchy(t)
	h.Data(0, 0x1000, 8, true) // dirty in DL1
	// Evict 0x1000 from DL1 with two conflicting fills.
	h.Data(100, 0x1000+1024, 8, false)
	h.Data(110, 0x1000+2048, 8, false)
	if h.L2.Writebacks != 0 {
		t.Error("L2 should not have written back yet")
	}
	// The dirty line's bytes must now be marked written in L2: evicting it
	// from L2 (or finalizing) counts write→evict ACE.
	before := h.L2.aceBytes()
	h.L2.Finalize(500)
	if h.L2.aceBytes() == before {
		t.Error("dirty writeback did not mark L2 bytes (no write→evict ACE)")
	}
}

func TestFetchPath(t *testing.T) {
	h := testHierarchy(t)
	if extra := h.Fetch(0, 0x8000); extra == 0 {
		t.Error("cold fetch should pay an L2/memory penalty")
	}
	if extra := h.Fetch(10, 0x8004); extra != 0 {
		t.Errorf("same-line fetch should hit IL1, got extra %d", extra)
	}
}

func TestUnifiedL2SeesInstructionLines(t *testing.T) {
	h := testHierarchy(t)
	h.Fetch(0, 0x8000)
	if h.L2.find(0x8000) == nil {
		t.Error("instruction line not allocated in the unified L2")
	}
}

func TestHierarchyResets(t *testing.T) {
	h := testHierarchy(t)
	// Cold write: TLB walk (30) + memory (100) put the DL1 write at t=133.
	h.Data(0, 0x1000, 8, true)
	h.Fetch(0, 0x8000)
	h.ResetACE(150)
	h.ResetStats()
	if h.DL1.Accesses != 0 || h.L2.Accesses != 0 || h.DTLB.Accesses != 0 {
		t.Error("stats survived reset")
	}
	h.Finalize(200)
	// The dirty bytes written at t=133 are clipped at the window start:
	// ACE = (200-150) × 8 bytes, not (200-133) × 8.
	if got := h.DL1.aceBytes(); got != 8*50 {
		t.Errorf("clipped dirty ACE %d byte-cycles, want 400", got)
	}
}

func TestBaselineHierarchyGeometry(t *testing.T) {
	// Table I geometry survives into the built caches.
	h, err := NewHierarchy(tableIMem())
	if err != nil {
		t.Fatal(err)
	}
	if h.DL1.Lines() != 1024 {
		t.Errorf("DL1 lines = %d, want 1024", h.DL1.Lines())
	}
	if h.L2.Lines() != 16384 {
		t.Errorf("L2 lines = %d, want 16384", h.L2.Lines())
	}
	if h.DTLB.Config().Entries != 256 {
		t.Errorf("DTLB entries = %d, want 256", h.DTLB.Config().Entries)
	}
}
