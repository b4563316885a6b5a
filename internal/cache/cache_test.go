package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func tiny() *Cache {
	// 4 sets × 2 ways × 64B lines = 512B.
	return MustNew(Config{Name: "t", SizeBytes: 512, LineBytes: 64, Ways: 2, HitLatency: 1})
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Name: "a", SizeBytes: 0, LineBytes: 64, Ways: 1},
		{Name: "b", SizeBytes: 1024, LineBytes: 0, Ways: 1},
		{Name: "c", SizeBytes: 1024, LineBytes: 48, Ways: 1},  // not pow2
		{Name: "d", SizeBytes: 1024, LineBytes: 128, Ways: 1}, // > 64
		{Name: "e", SizeBytes: 1024, LineBytes: 64, Ways: 0},
		{Name: "f", SizeBytes: 1000, LineBytes: 64, Ways: 2},   // not divisible
		{Name: "g", SizeBytes: 64 * 3, LineBytes: 64, Ways: 1}, // sets not pow2
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
		if _, err := New(c); err == nil {
			t.Errorf("New accepted %+v", c)
		}
	}
}

func TestGeometry(t *testing.T) {
	c := Config{Name: "dl1", SizeBytes: 64 << 10, LineBytes: 64, Ways: 2, HitLatency: 3}
	if c.NumSets() != 512 {
		t.Errorf("sets = %d, want 512", c.NumSets())
	}
	if c.NumLines() != 1024 {
		t.Errorf("lines = %d, want 1024", c.NumLines())
	}
	if c.DataBits() != 64*1024*8 {
		t.Errorf("data bits = %d", c.DataBits())
	}
	// 44-bit physical, 9 index bits, 6 offset bits → 29-bit tag + 2.
	if c.TagBitsPerLine() != 31 {
		t.Errorf("tag bits/line = %d, want 31", c.TagBitsPerLine())
	}
	if c.Bits() != c.DataBits()+c.TagBits() {
		t.Error("Bits() is not data+tag")
	}
}

// checked runs f with the fast-path invariant checks on, so a test that
// breaks a residency or alignment rule panics instead of passing.
func checked(t *testing.T) {
	prev := SetDebugChecks(true)
	t.Cleanup(func() { SetDebugChecks(prev) })
}

// resident reports whether addr's line is in c, without touching state.
func (c *Cache) resident(addr uint64) bool { return c.find(addr) != nil }

func TestHitMissAndLRU(t *testing.T) {
	checked(t)
	c := tiny()
	// Three lines mapping to the same set (stride = sets*line = 256).
	a0, a1, a2 := uint64(0), uint64(256), uint64(512)
	c.FillTouch(0, 0, a0, 8, false)
	c.FillTouch(0, 0, a1, 8, false)
	if !c.resident(a0) || !c.resident(a1) {
		t.Fatal("filled lines must hit")
	}
	// Touch a0 so a1 is LRU, then fill a2: a1 must be evicted.
	if !c.Access(1, a0, 8, false) {
		t.Fatal("resident line missed")
	}
	c.FillTouch(2, 2, a2, 8, false)
	if c.resident(a1) {
		t.Error("LRU line a1 survived eviction")
	}
	if !c.resident(a0) || !c.resident(a2) {
		t.Error("MRU line or new line missing")
	}
}

// TestTouchNonResidentRejected: a demand access to a line that is not
// resident is refused — Access reports the miss and changes no state, so
// the caller fills through FillTouch.
func TestTouchNonResidentRejected(t *testing.T) {
	checked(t)
	c := tiny()
	c.FillTouch(0, 0, 0, 8, true)
	before := *c
	if c.Access(5, 0x40, 8, false) {
		t.Fatal("access of a non-resident line hit")
	}
	if c.Accesses != before.Accesses || c.Misses != before.Misses || c.aceBytes() != before.aceBytes() {
		t.Error("refused access changed counters")
	}
	if c.resident(0x40) {
		t.Error("refused access allocated the line")
	}
}

// Lifetime rules, byte-granular. Each sub-test drives one transition and
// checks the ACE contribution in data byte-cycles. A fill is FillTouch
// with a zero-byte touch, which closes no chunk.
func TestLifetimeRules(t *testing.T) {
	checked(t)
	ace := func(ops func(c *Cache)) uint64 {
		c := tiny()
		ops(c)
		return c.aceBytes()
	}
	fill := func(c *Cache, at int64) { c.FillTouch(at, at, 0, 0, false) }
	t.Run("fill→read is ACE", func(t *testing.T) {
		got := ace(func(c *Cache) {
			c.FillTouch(0, 10, 0, 8, false)
		})
		if got != 8*10 {
			t.Errorf("ACE byte-cycles = %d, want 80", got)
		}
	})
	t.Run("read→read is ACE", func(t *testing.T) {
		got := ace(func(c *Cache) {
			c.FillTouch(0, 10, 0, 8, false)
			c.Access(30, 0, 8, false)
		})
		if got != 8*10+8*20 {
			t.Errorf("ACE byte-cycles = %d, want 240", got)
		}
	})
	t.Run("fill→write is un-ACE", func(t *testing.T) {
		got := ace(func(c *Cache) {
			c.FillTouch(0, 10, 0, 8, true)
		})
		if got != 0 {
			t.Errorf("ACE byte-cycles = %d, want 0", got)
		}
	})
	t.Run("write→read is ACE", func(t *testing.T) {
		got := ace(func(c *Cache) {
			c.FillTouch(0, 10, 0, 8, true)
			c.Access(25, 0, 8, false)
		})
		if got != 8*15 {
			t.Errorf("ACE byte-cycles = %d, want 120", got)
		}
	})
	t.Run("read→write is un-ACE for the gap", func(t *testing.T) {
		got := ace(func(c *Cache) {
			c.FillTouch(0, 10, 0, 8, false) // fill→read ACE: 80
			c.Access(30, 0, 8, true)        // read→write: gap un-ACE
		})
		if got != 80 {
			t.Errorf("ACE byte-cycles = %d, want 80", got)
		}
	})
	t.Run("write→evict is ACE (writeback)", func(t *testing.T) {
		got := ace(func(c *Cache) {
			c.FillTouch(0, 10, 0, 8, true)
			c.Finalize(50) // dirty close = evict
		})
		if got != 8*40 {
			t.Errorf("ACE byte-cycles = %d, want 320", got)
		}
	})
	t.Run("read→evict is un-ACE", func(t *testing.T) {
		got := ace(func(c *Cache) {
			c.FillTouch(0, 10, 0, 8, false)
			c.Finalize(50)
		})
		if got != 80 {
			t.Errorf("ACE byte-cycles = %d, want 80 (only fill→read)", got)
		}
	})
	t.Run("fill→evict is un-ACE", func(t *testing.T) {
		got := ace(func(c *Cache) {
			fill(c, 0)
			c.Finalize(50)
		})
		if got != 0 {
			t.Errorf("ACE byte-cycles = %d, want 0", got)
		}
	})
	t.Run("untouched bytes of a read line are un-ACE", func(t *testing.T) {
		got := ace(func(c *Cache) {
			c.FillTouch(0, 10, 0, 4, false) // only 4 of 64 bytes read
		})
		if got != 4*10 {
			t.Errorf("ACE byte-cycles = %d, want 40", got)
		}
	})
}

func TestWritebackMask(t *testing.T) {
	checked(t)
	c := tiny()
	c.FillTouch(0, 1, 8, 8, true) // dirty bytes 8..15
	c.Access(2, 32, 8, true)      // dirty bytes 32..39
	// Force eviction: fill two more lines in set 0.
	c.FillTouch(3, 3, 256, 0, false)
	wb, dirty := c.FillTouch(4, 4, 512, 0, false)
	if !dirty {
		t.Fatal("dirty line evicted without writeback")
	}
	if wb.Addr != 0 {
		t.Errorf("writeback address %#x, want 0", wb.Addr)
	}
	wantMask := uint64(0xff)<<8 | uint64(0xff)<<32
	if wb.DirtyMask != wantMask {
		t.Errorf("dirty mask %#x, want %#x", wb.DirtyMask, wantMask)
	}
	if c.Writebacks != 1 {
		t.Errorf("writeback count %d", c.Writebacks)
	}
}

func TestResetACEClipsOpenIntervals(t *testing.T) {
	checked(t)
	c := tiny()
	c.FillTouch(0, 10, 0, 8, false) // ACE 80 before the reset
	c.ResetACE(100)
	if c.aceBytes() != 0 {
		t.Fatal("counters survived reset")
	}
	c.Access(150, 0, 8, false) // read→read spanning the reset: clipped at 100
	if c.aceBytes() != 8*50 {
		t.Errorf("clipped interval contributed %d byte-cycles, want 400", c.aceBytes())
	}
}

func TestAVFBounds(t *testing.T) {
	checked(t)
	c := tiny()
	c.FillTouch(0, 1, 0, 64, false)
	for i := int64(2); i <= 100; i++ {
		c.Access(i, 0, 64, false)
	}
	c.Finalize(100)
	if avf := c.DataAVF(100); avf < 0 || avf > 1 {
		t.Errorf("data AVF %f out of bounds", avf)
	}
	if avf := c.AVF(100); avf < 0 || avf > 1 {
		t.Errorf("combined AVF %f out of bounds", avf)
	}
	if c.DataAVF(0) != 0 {
		t.Error("zero-cycle AVF should be 0")
	}
}

func TestMissRate(t *testing.T) {
	checked(t)
	c := tiny()
	c.FillTouch(0, 0, 0, 8, false)
	c.Access(1, 0, 8, false)
	if got := c.MissRate(); got != 0.5 {
		t.Errorf("miss rate %f, want 0.5 (1 fill / 2 touches)", got)
	}
	c.ResetStats()
	if c.MissRate() != 0 {
		t.Error("stats not reset")
	}
}

// TestWritebackAccessesCountedSeparately locks the satellite fix:
// writeback-apply traffic from an upper level must not inflate the
// demand-access count (and therefore the miss rate), but remains
// visible in WritebackAccesses and TrafficMissRate.
func TestWritebackAccessesCountedSeparately(t *testing.T) {
	checked(t)
	c := tiny()
	c.FillTouch(0, 1, 0, 8, false) // 1 demand access, 1 miss
	c.WriteMask(2, 0, 0xff)        // resident: no write-allocate miss
	if c.Accesses != 1 || c.WritebackAccesses != 1 {
		t.Fatalf("accesses=%d writebackAccesses=%d, want 1/1", c.Accesses, c.WritebackAccesses)
	}
	if got := c.MissRate(); got != 1.0 {
		t.Errorf("demand miss rate %f, want 1.0 (1 miss / 1 demand access)", got)
	}
	if got := c.TrafficMissRate(); got != 0.5 {
		t.Errorf("traffic miss rate %f, want 0.5 (1 miss / 2 total)", got)
	}
	// A write-allocate miss counts as a writeback miss, not a demand one.
	c2 := tiny()
	c2.WriteMask(0, 0, 0xff)
	if c2.Accesses != 0 || c2.WritebackAccesses != 1 || c2.Misses != 0 || c2.WritebackMisses != 1 {
		t.Errorf("WriteMask: accesses=%d wb=%d misses=%d wbMisses=%d, want 0/1/0/1",
			c2.Accesses, c2.WritebackAccesses, c2.Misses, c2.WritebackMisses)
	}
	if c2.MissRate() != 0 {
		t.Errorf("demand miss rate with no demand accesses = %f, want 0", c2.MissRate())
	}
	if c2.TrafficMissRate() != 1.0 {
		t.Errorf("traffic miss rate = %f, want 1.0 (allocate miss / 1 writeback access)", c2.TrafficMissRate())
	}
}

// TestChunkConfigValidation covers the ChunkBytes rules.
func TestChunkConfigValidation(t *testing.T) {
	base := Config{Name: "c", SizeBytes: 1024, LineBytes: 64, Ways: 1}
	for _, cb := range []int{0, 1, 2, 4, 8, 16, 32, 64} {
		cfg := base
		cfg.ChunkBytes = cb
		if err := cfg.Validate(); err != nil {
			t.Errorf("chunk %d rejected: %v", cb, err)
		}
	}
	for _, cb := range []int{-1, 3, 6, 12, 128} {
		cfg := base
		cfg.ChunkBytes = cb
		if err := cfg.Validate(); err == nil {
			t.Errorf("chunk %d accepted", cb)
		}
	}
	if got := base.EffectiveChunkBytes(); got != 1 {
		t.Errorf("effective chunk of unset config = %d, want 1", got)
	}
}

// TestChunkAlignmentPanics: the engine must reject accesses that are not
// chunk-aligned multiples of the chunk size, in any build.
func TestChunkAlignmentPanics(t *testing.T) {
	c := MustNew(Config{Name: "a", SizeBytes: 512, LineBytes: 64, Ways: 2, HitLatency: 1, ChunkBytes: 8})
	c.FillTouch(0, 0, 0, 8, false)
	for _, bad := range []struct {
		addr uint64
		size int
	}{{4, 8}, {0, 4}, {3, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("misaligned access %#x size %d accepted", bad.addr, bad.size)
				}
			}()
			c.Access(1, bad.addr, bad.size, false)
		}()
	}
}

// TestDebugChecks verifies the fast-path invariant checks that
// SetDebugChecks enables: double fills, line-crossing accesses and
// partial-chunk writeback masks all panic instead of silently
// corrupting state.
func TestDebugChecks(t *testing.T) {
	prev := SetDebugChecks(true)
	defer SetDebugChecks(prev)
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic under debug checks", name)
			}
		}()
		f()
	}
	mk := func() *Cache {
		c := MustNew(Config{Name: "d", SizeBytes: 512, LineBytes: 64, Ways: 2, HitLatency: 1, ChunkBytes: 8})
		c.FillTouch(0, 0, 0, 8, false)
		return c
	}
	expectPanic("double fill", func() { mk().FillTouch(1, 1, 0, 8, false) })
	expectPanic("line-crossing access", func() { mk().Access(1, 56, 16, false) })
	expectPanic("line-crossing fill touch", func() { mk().FillTouch(1, 1, 64+56, 16, false) })
	expectPanic("partial-chunk mask", func() { mk().WriteMask(1, 0, 0x3) })
	// And the checked paths still accept legal traffic.
	c := mk()
	if !c.Access(1, 8, 8, true) {
		t.Error("legal access rejected under debug checks")
	}
	c.WriteMask(2, 0, 0xff00)
}

// Property: for arbitrary access sequences, ACE byte-cycles never exceed
// bytes × elapsed time, and replaying the sequence is deterministic.
func TestQuickLifetimeInvariants(t *testing.T) {
	checked(t)
	f := func(seed int64, n uint8) bool {
		run := func() (*Cache, int64) {
			c := tiny()
			rng := rand.New(rand.NewSource(seed))
			now := int64(0)
			for i := 0; i < int(n)+1; i++ {
				now += int64(rng.Intn(10) + 1)
				addr := uint64(rng.Intn(16)) * 64
				off := uint64(rng.Intn(8)) * 8
				write := rng.Intn(2) == 0
				if !c.Access(now, addr+off, 8, write) {
					c.FillTouch(now, now, addr+off, 8, write)
				}
			}
			c.Finalize(now + 1)
			return c, now + 1
		}
		c1, end := run()
		c2, _ := run()
		if c1.aceBytes() != c2.aceBytes() || c1.tagAceCycles != c2.tagAceCycles {
			return false // non-deterministic
		}
		if c1.aceBytes() > uint64(c1.cfg.SizeBytes)*uint64(end) {
			return false // more ACE than physically possible
		}
		return c1.DataAVF(end) <= 1 && c1.TagAVF(end) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
