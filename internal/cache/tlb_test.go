package cache

import "testing"

func tinyTLB() *TLB {
	return MustNewTLB(TLBConfig{
		Name: "t", Entries: 4, PageBytes: 8 << 10, EntryBits: 80, WalkLatency: 30,
	})
}

// resident reports whether addr's page is in t, without state changes.
func (t *TLB) resident(addr uint64) bool {
	for _, e := range t.entries {
		if e.valid && e.vpn == addr>>t.pageBits {
			return true
		}
	}
	return false
}

func TestTLBConfigValidation(t *testing.T) {
	bad := []TLBConfig{
		{Entries: 0, PageBytes: 8192, EntryBits: 80},
		{Entries: 4, PageBytes: 1000, EntryBits: 80}, // not pow2
		{Entries: 4, PageBytes: 8192, EntryBits: 0},
	}
	for _, c := range bad {
		if _, err := NewTLB(c); err == nil {
			t.Errorf("accepted %+v", c)
		}
	}
}

func TestTLBHitMissWalk(t *testing.T) {
	tl := tinyTLB()
	if lat := tl.Access(0, 0); lat != 30 {
		t.Errorf("cold access latency %d, want walk latency 30", lat)
	}
	if lat := tl.Access(1, 4096); lat != 0 {
		t.Errorf("same-page access latency %d, want 0", lat)
	}
	if !tl.resident(0) {
		t.Error("probe after fill missed")
	}
	if tl.MissRate() != 0.5 {
		t.Errorf("miss rate %f, want 0.5", tl.MissRate())
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tl := tinyTLB()
	page := func(i int) uint64 { return uint64(i) * 8192 }
	for i := 0; i < 4; i++ {
		tl.Access(int64(i), page(i))
	}
	tl.Access(10, page(0)) // page 0 now MRU
	tl.Access(11, page(4)) // evicts page 1 (LRU)
	if tl.resident(page(1)) {
		t.Error("LRU page survived")
	}
	if !tl.resident(page(0)) || !tl.resident(page(4)) {
		t.Error("wrong page evicted")
	}
}

func TestTLBLifetimeFillToLastRead(t *testing.T) {
	// An entry is ACE from fill to its last read; read→evict is un-ACE
	// (the paper uses exactly this to require DTLB coverage *without*
	// evictions).
	tl := tinyTLB()
	tl.Access(0, 0)  // fill at 0
	tl.Access(40, 0) // last read at 40
	tl.Finalize(100) // tail 40..100 un-ACE
	if tl.aceEntryCycles != 40 {
		t.Errorf("ACE entry-cycles = %d, want 40", tl.aceEntryCycles)
	}
	if avf := tl.AVF(100); avf != 40.0/400.0 {
		t.Errorf("AVF = %f, want 0.1", avf)
	}
}

func TestTLBResetACE(t *testing.T) {
	tl := tinyTLB()
	tl.Access(0, 0)
	tl.Access(50, 0)
	tl.ResetACE(100)
	if tl.aceEntryCycles != 0 {
		t.Error("counters survived reset")
	}
	tl.Access(150, 0)
	tl.Finalize(200)
	if tl.aceEntryCycles != 50 {
		t.Errorf("clipped span = %d entry-cycles, want 50 (100..150)", tl.aceEntryCycles)
	}
}

func TestTLBHammingCAM(t *testing.T) {
	tl := MustNewTLB(TLBConfig{
		Name: "h", Entries: 4, PageBytes: 8 << 10, EntryBits: 80,
		WalkLatency: 30, HammingCAM: true,
	})
	// VPNs 0 and 1 differ in exactly one bit: both become HD-1 exposed.
	tl.Access(0, 0*8192)
	tl.Access(10, 1*8192)
	tl.Access(90, 0*8192)
	tl.Access(90, 1*8192)
	tl.Finalize(100)
	if tl.hd1EntryCycles == 0 {
		t.Error("Hamming-distance-1 exposure not recorded for adjacent VPNs")
	}
	plainAVF := tl.AVF(100)
	if plainAVF <= 0 || plainAVF > 1 {
		t.Errorf("CAM-refined AVF %f out of range", plainAVF)
	}

	// VPNs 0 and 3 differ in two bits: no exposure.
	tl2 := MustNewTLB(TLBConfig{
		Name: "h2", Entries: 4, PageBytes: 8 << 10, EntryBits: 80,
		WalkLatency: 30, HammingCAM: true,
	})
	tl2.Access(0, 0*8192)
	tl2.Access(10, 3*8192)
	tl2.Finalize(100)
	if tl2.hd1EntryCycles != 0 {
		t.Errorf("HD-2 pair recorded %d exposure cycles", tl2.hd1EntryCycles)
	}
}

func TestTLBCAMRefinementLowersAVF(t *testing.T) {
	mk := func(ham bool) *TLB {
		tl := MustNewTLB(TLBConfig{
			Name: "c", Entries: 8, PageBytes: 8 << 10, EntryBits: 80,
			WalkLatency: 30, HammingCAM: ham,
		})
		// Pages 0 and 5 (HD 2 apart): tags never HD-1 exposed.
		tl.Access(0, 0)
		tl.Access(0, 5*8192)
		tl.Access(100, 0)
		tl.Access(100, 5*8192)
		tl.Finalize(100)
		return tl
	}
	plain, refined := mk(false).AVF(100), mk(true).AVF(100)
	if refined >= plain {
		t.Errorf("CAM refinement should lower AVF when no HD-1 pairs exist: plain %f refined %f",
			plain, refined)
	}
}
