package cache

import (
	"fmt"
	"math/bits"
)

// TLBConfig describes a fully associative data TLB.
type TLBConfig struct {
	Name      string
	Entries   int
	PageBytes int
	// EntryBits is the SER-relevant width of one entry (VPN tag + PPN +
	// permission bits). The baseline uses 80.
	EntryBits int
	// WalkLatency is the page-walk penalty on a miss, in cycles.
	WalkLatency int
	// HammingCAM enables the Biswas et al. refinement for CAM tag bits:
	// an entry's tag is only vulnerable while some other resident entry
	// sits at Hamming distance one from it.
	HammingCAM bool
}

// Fingerprint returns a canonical description of every field for
// internal/simcache keys.
func (c TLBConfig) Fingerprint() string {
	return fmt.Sprintf("cache.TLBConfig%+v", c)
}

// Validate reports configuration errors.
func (c TLBConfig) Validate() error {
	switch {
	case c.Entries <= 0:
		return fmt.Errorf("tlb %s: non-positive entry count %d", c.Name, c.Entries)
	case c.PageBytes <= 0 || c.PageBytes&(c.PageBytes-1) != 0:
		return fmt.Errorf("tlb %s: page size %d not a positive power of two", c.Name, c.PageBytes)
	case c.EntryBits <= 0:
		return fmt.Errorf("tlb %s: non-positive entry width %d", c.Name, c.EntryBits)
	}
	return nil
}

type tlbEntry struct {
	vpn      uint64
	valid    bool
	fillTime int64
	lastRead int64
	lru      int64
	// hd1Cycles accumulates cycles during which this entry had at least
	// one Hamming-distance-1 neighbour (only maintained with HammingCAM).
	hd1Cycles uint64
	hd1Since  int64
	hd1Count  int
}

// TLB is a fully associative, LRU translation buffer with lifetime ACE
// accounting: an entry is ACE from fill to its last read (read→evict is
// un-ACE, per the paper).
//
// Residency is indexed by a VPN map so the hit path — the overwhelmingly
// common case — is a single lookup instead of a scan of all entries;
// LRU victim selection scans only on the (rare) miss, and the HD-1
// exposure bookkeeping is maintained incrementally per fill (O(entries)
// instead of the previous O(entries²) recompute).
type TLB struct {
	cfg      TLBConfig
	entries  []tlbEntry
	byVPN    map[uint64]int32 // valid entries only
	pageBits uint
	small    bool // few entries: hit path scans instead of using the map

	// One-entry memo for Access: consecutive data accesses overwhelmingly
	// hit the same page, so the common case skips even the map lookup.
	// Fills keep it coherent (the filled entry becomes the memo);
	// Finalize and Reset clear it.
	memoVPN   uint64
	memoIdx   int32
	memoValid bool

	aceEntryCycles uint64 // entry-cycles (fill→last-read spans)
	hd1EntryCycles uint64
	windowStart    int64

	// watched holds the armed, unresolved fault-injection fate watches
	// (DESIGN.md §9) per entry slot; nil on every normal simulation.
	// Batched campaign replays arm one watch per co-replayed trial.
	// fates is the caller's queue the resolutions are appended to.
	watched [][]tlbWatch
	fates   *[]Fate

	Accesses uint64
	Misses   uint64
}

// tlbWatch observes the fate of one TLB entry slot for the
// fault-injection engine: the entry residency covering the watched
// timestamp ends ACE iff its last read happened after that timestamp
// (fill→last-read is the entry's ACE span; read→evict is un-ACE).
// Watches are pure observers and never perturb TLB state.
type tlbWatch struct {
	id    int32
	cycle int64
}

// NewTLB builds a TLB; the configuration must validate.
func NewTLB(cfg TLBConfig) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &TLB{
		cfg:     cfg,
		entries: make([]tlbEntry, cfg.Entries),
		byVPN:   make(map[uint64]int32, cfg.Entries),
		small:   cfg.Entries <= 64,
	}
	for p := cfg.PageBytes; p > 1; p >>= 1 {
		t.pageBits++
	}
	return t, nil
}

// MustNewTLB is NewTLB for known-good configurations.
func MustNewTLB(cfg TLBConfig) *TLB {
	t, err := NewTLB(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the TLB configuration.
func (t *TLB) Config() TLBConfig { return t.cfg }

// Access translates addr at time now, returning the added latency (0 on
// a hit, WalkLatency on a miss, which also fills the entry).
func (t *TLB) Access(now int64, addr uint64) (latency int) {
	vpn := addr >> t.pageBits
	t.Accesses++
	if t.memoValid && vpn == t.memoVPN {
		e := &t.entries[t.memoIdx]
		e.lastRead = now
		e.lru = now
		return 0
	}
	if t.small {
		// Few entries: a scan beats the map lookup (the map is still
		// maintained, as the large-configuration path).
		for i := range t.entries {
			e := &t.entries[i]
			if e.valid && e.vpn == vpn {
				e.lastRead = now
				e.lru = now
				t.memoVPN, t.memoIdx, t.memoValid = vpn, int32(i), true
				return 0
			}
		}
	} else if i, ok := t.byVPN[vpn]; ok {
		e := &t.entries[i]
		e.lastRead = now
		e.lru = now
		t.memoVPN, t.memoIdx, t.memoValid = vpn, i, true
		return 0
	}
	t.Misses++
	// Evict LRU (or take an invalid slot).
	victim := &t.entries[0]
	victimIdx := int32(0)
	for i := 1; i < len(t.entries); i++ {
		e := &t.entries[i]
		if !e.valid {
			victim, victimIdx = e, int32(i)
			break
		}
		if victim.valid && e.lru < victim.lru {
			victim, victimIdx = e, int32(i)
		}
	}
	oldVPN, hadOld := victim.vpn, victim.valid
	if victim.valid {
		t.closeEntry(victim, victimIdx, now)
	}
	victim.valid = true
	victim.vpn = vpn
	victim.fillTime = now
	victim.lastRead = now // the filling access reads the translation
	victim.lru = now
	t.byVPN[vpn] = victimIdx
	t.memoVPN, t.memoIdx, t.memoValid = vpn, victimIdx, true
	if t.cfg.HammingCAM {
		t.updateHD1(now, victimIdx, vpn, oldVPN, hadOld)
	}
	return t.cfg.WalkLatency
}

func (t *TLB) closeEntry(e *tlbEntry, idx int32, now int64) {
	if t.watched != nil {
		t.watchClose(idx, e, now)
	}
	t0 := e.fillTime
	if t0 < t.windowStart {
		t0 = t.windowStart
	}
	end := e.lastRead
	if end > t0 {
		t.aceEntryCycles += uint64(end - t0)
	}
	if t.cfg.HammingCAM {
		t.closeHD1(e, now)
	}
	e.valid = false
	delete(t.byVPN, e.vpn)
}

// watchClose resolves the armed fate watches on entry slot idx whose
// timestamp lies inside the closing residency [fillTime, now), and drops
// them from the slot's list.
func (t *TLB) watchClose(idx int32, e *tlbEntry, now int64) {
	ws := t.watched[idx]
	for i := 0; i < len(ws); {
		w := ws[i]
		if w.cycle < e.fillTime || w.cycle >= now {
			i++
			continue
		}
		*t.fates = append(*t.fates, Fate{ID: w.id, ACE: e.lastRead > w.cycle})
		ws[i] = ws[len(ws)-1]
		ws = ws[:len(ws)-1]
	}
	t.watched[idx] = ws
}

// closeHD1 folds the entry's open HD-1 exposure interval into its
// counter and then into the TLB-wide total.
func (t *TLB) closeHD1(e *tlbEntry, now int64) {
	if e.hd1Count > 0 && now > e.hd1Since {
		e.hd1Cycles += uint64(now - e.hd1Since)
	}
	t.hd1EntryCycles += e.hd1Cycles
	e.hd1Cycles = 0
	e.hd1Count = 0
}

// updateHD1 maintains, after a fill, which entries have a resident
// Hamming-distance-1 neighbour. Residency changed only by the departure
// of oldVPN (when hadOld) and the arrival of newVPN, so each surviving
// entry's neighbour count is adjusted by at most ±1 — O(entries) per
// fill instead of the previous full O(entries²) recompute — while
// producing exactly the same exposure intervals.
func (t *TLB) updateHD1(now int64, newIdx int32, newVPN, oldVPN uint64, hadOld bool) {
	newCount := 0
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid || int32(i) == newIdx {
			continue
		}
		d := e.hd1Count
		if hadOld && bits.OnesCount64(e.vpn^oldVPN) == 1 {
			d--
		}
		if bits.OnesCount64(e.vpn^newVPN) == 1 {
			d++
			newCount++
		}
		if d != e.hd1Count {
			if d > 0 && e.hd1Count == 0 {
				e.hd1Since = now
			}
			if d == 0 && e.hd1Count > 0 && now > e.hd1Since {
				e.hd1Cycles += uint64(now - e.hd1Since)
			}
			e.hd1Count = d
		}
	}
	ne := &t.entries[newIdx]
	if newCount > 0 {
		ne.hd1Since = now
	}
	ne.hd1Count = newCount
}

// AddWatch arms a fault-injection fate watch on entry slot idx with the
// given injection timestamp; its resolution is appended to *fates under
// id, at the eviction or Finalize that decides it, and every watch armed
// until the next ClearWatches must name the same queue. Any number of
// watches may be armed at once; each resolves independently. Arm before the replay starts; Reset, Restore and
// ClearWatches disarm all watches. An entry under HammingCAM resolves by
// the plain lifetime rule (the HD-1 tag refinement is an AVF derating,
// not a fate change; internal/inject documents the resulting
// conservatism).
func (t *TLB) AddWatch(idx int, cycle int64, id int32, fates *[]Fate) error {
	if idx < 0 || idx >= len(t.entries) {
		return fmt.Errorf("tlb %s: watch entry %d out of range (%d entries)", t.cfg.Name, idx, len(t.entries))
	}
	if t.watched == nil {
		t.watched = make([][]tlbWatch, len(t.entries))
	}
	t.watched[idx] = append(t.watched[idx], tlbWatch{id: id, cycle: cycle})
	t.fates = fates
	return nil
}

// ClearWatches disarms all fate watches.
func (t *TLB) ClearWatches() {
	t.watched = nil
	t.fates = nil
}

// Finalize closes all resident entries at time now. Call once at the end
// of a measurement.
func (t *TLB) Finalize(now int64) {
	t.memoValid = false
	for i := range t.entries {
		if t.entries[i].valid {
			t.closeEntry(&t.entries[i], int32(i), now)
		}
	}
}

// ResetACE restarts ACE measurement at now, keeping contents.
func (t *TLB) ResetACE(now int64) {
	t.aceEntryCycles, t.hd1EntryCycles = 0, 0
	t.windowStart = now
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			continue
		}
		if e.fillTime < now {
			e.fillTime = now
		}
		if e.lastRead < now {
			e.lastRead = now
		}
		e.hd1Cycles = 0
		if e.hd1Count > 0 {
			e.hd1Since = now
		}
	}
}

// ResetStats clears access counters.
func (t *TLB) ResetStats() { t.Accesses, t.Misses = 0, 0 }

// Reset returns the TLB to its power-on state (all entries invalid, all
// accumulators zeroed) without reallocating the entry array.
func (t *TLB) Reset() {
	for i := range t.entries {
		t.entries[i] = tlbEntry{}
	}
	clear(t.byVPN)
	t.memoValid = false
	t.aceEntryCycles, t.hd1EntryCycles = 0, 0
	t.windowStart = 0
	t.ClearWatches()
	t.ResetStats()
}

// AVF returns the TLB AVF over a window of cycles cycles. With
// HammingCAM enabled, the tag share of each entry is scaled by its HD-1
// exposure.
func (t *TLB) AVF(cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	denom := float64(t.cfg.Entries) * float64(cycles)
	plain := float64(t.aceEntryCycles) / denom
	if !t.cfg.HammingCAM {
		return plain
	}
	// Split the entry into tag (VPN) and payload bits; payload uses the
	// lifetime result, tag additionally requires HD-1 exposure.
	tagBits := float64(52) // 64 - 13 (8kB pages) + asn bits, rounded
	entry := float64(t.cfg.EntryBits)
	if tagBits > entry {
		tagBits = entry / 2
	}
	payload := entry - tagBits
	hd1 := float64(t.hd1EntryCycles) / denom
	if hd1 > plain {
		hd1 = plain
	}
	return (plain*payload + hd1*tagBits) / entry
}

// Bits returns the total SER-relevant bit count.
func (t *TLB) Bits() uint64 { return uint64(t.cfg.Entries) * uint64(t.cfg.EntryBits) }

// MissRate returns misses/accesses.
func (t *TLB) MissRate() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.Misses) / float64(t.Accesses)
}
