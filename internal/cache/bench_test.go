package cache

import "testing"

// Microbenchmarks for the lifetime engine, independent of the pipeline,
// so the cost of the cache layer is tracked on its own in BENCH_*.json
// (wired into `make bench`). All use the Table I DL1/L2 geometries with
// the production 8-byte chunk granule.

func dl1Cfg() Config {
	return Config{Name: "DL1", SizeBytes: 64 << 10, LineBytes: 64, Ways: 2, HitLatency: 3, ChunkBytes: 8}
}

// BenchmarkCacheHit measures the demand-hit fast path (one lookup plus
// one chunk close), the single most frequent cache operation.
func BenchmarkCacheHit(b *testing.B) {
	c := MustNew(dl1Cfg())
	c.FillTouch(0, 1, 0x1000, 8, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(int64(i)+2, 0x1000, 8, false)
	}
}

// BenchmarkCacheMissFill measures the miss path: victim eviction,
// whole-line fill and the demand touch, via a line sweep that misses on
// every access.
func BenchmarkCacheMissFill(b *testing.B) {
	c := MustNew(dl1Cfg())
	stride := uint64(c.cfg.LineBytes)
	lines := uint64(c.Lines() * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := (uint64(i) % lines) * stride
		now := int64(i) * 2
		if !c.Access(now, addr, 8, false) {
			c.FillTouch(now, now+1, addr, 8, false)
		}
	}
}

// BenchmarkCacheWriteback measures the dirty-line path: every access
// writes, so every eviction produces a writeback mask, applied to an L2
// via WriteMask.
func BenchmarkCacheWriteback(b *testing.B) {
	c := MustNew(dl1Cfg())
	l2 := MustNew(Config{Name: "L2", SizeBytes: 1 << 20, LineBytes: 64, Ways: 1, HitLatency: 7, ChunkBytes: 8})
	stride := uint64(c.cfg.LineBytes)
	lines := uint64(c.Lines() * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := (uint64(i) % lines) * stride
		now := int64(i) * 2
		if !c.Access(now, addr, 8, true) {
			wb, dirty := c.FillTouch(now, now+1, addr, 8, true)
			if dirty {
				l2.WriteMask(now, wb.Addr, wb.DirtyMask)
			}
		}
	}
}

// BenchmarkCacheFinalize measures closing every resident line of a fully
// populated, half-dirty cache (the end-of-measurement path, also the
// cost profile of a capacity-sized eviction storm).
func BenchmarkCacheFinalize(b *testing.B) {
	c := MustNew(dl1Cfg())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c.Reset()
		stride := uint64(c.cfg.LineBytes)
		for l := 0; l < c.Lines(); l++ {
			addr := uint64(l) * stride
			c.FillTouch(0, 1, addr, 8, l%2 == 0)
		}
		b.StartTimer()
		c.Finalize(100)
	}
}

// BenchmarkTLBHit measures the translation hit path at the full 256
// entries (map-indexed) and at the scaled 8 entries (scan-indexed).
func BenchmarkTLBHit(b *testing.B) {
	for _, entries := range []int{256, 8} {
		name := "entries256"
		if entries == 8 {
			name = "entries8"
		}
		b.Run(name, func(b *testing.B) {
			tl := MustNewTLB(TLBConfig{Name: "t", Entries: entries, PageBytes: 8 << 10,
				EntryBits: 80, WalkLatency: 30})
			for p := 0; p < entries; p++ {
				tl.Access(0, uint64(p)*8192)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Alternate pages to defeat the one-entry memo.
				tl.Access(int64(i), uint64(i%2)*8192)
			}
		})
	}
}
