// Package cache models the memory hierarchy of the simulated processor
// (L1 instruction and data caches, unified L2, data TLB) and computes
// cache AVF using the lifetime analysis of Biswas et al. (ISCA'05), as
// used by the paper's SimSoda-based AVF simulator.
//
// Lifetime rules, applied per byte of a writeback cache:
//
//	fill→read, read→read, write→read   ACE
//	write→evict (dirty writeback)      ACE
//	fill→write, read→write, x→evict    un-ACE (x = fill or read)
//
// At the end of a simulation, dirty bytes are closed as ACE (their
// writeback is still architecturally required); clean bytes are closed
// un-ACE. The tag array is approximated per line as ACE from fill to the
// end of the line's last ACE byte interval.
//
// The engine tracks lifetimes at chunk granularity (Config.ChunkBytes):
// because the pipeline only issues aligned fixed-size accesses, every
// byte inside an access granule always carries the same (state, time)
// pair, so per-chunk state is a lossless compression of the per-byte
// state machine and all ACE totals are bit-identical to byte-granular
// tracking (DESIGN.md §5). ChunkBytes = 1 recovers the fully general
// byte-granular engine.
package cache

import (
	"fmt"
	"math/bits"
)

// Chunk lifetime states.
const (
	stInvalid uint8 = iota
	stFill          // filled, not yet accessed
	stRead          // last access was a read
	stWrite         // last access was a write (dirty)
)

// debugChecks enables the residency/alignment invariant checks on the
// hierarchy fast path (Access, FillTouch, ReadLine, WriteMask). The
// checks catch caller bugs — double fills, touches of non-resident
// lines, line-crossing accesses, partial-chunk masks — at the cost of an
// extra associative walk per operation, so they are off by default and
// enabled by tests via SetDebugChecks.
var debugChecks = false

// SetDebugChecks toggles the fast-path invariant checks and returns the
// previous setting. Not safe for concurrent use with running simulations.
func SetDebugChecks(on bool) bool {
	prev := debugChecks
	debugChecks = on
	return prev
}

// Config describes one cache.
type Config struct {
	Name       string
	SizeBytes  int
	LineBytes  int // at most 64 (dirty masks are 64-bit)
	Ways       int // 1 = direct mapped
	HitLatency int // cycles

	// ChunkBytes is the lifetime-tracking granule: the GCD of every
	// access size the cache will observe (8 for a DL1/L2 fed 8-byte
	// loads/stores, 4 for an IL1 fed 4-byte fetches). Must be a power of
	// two dividing LineBytes; 0 means 1 (byte-granular). All accesses
	// must be ChunkBytes-aligned multiples of ChunkBytes — the engine
	// panics otherwise.
	ChunkBytes int
}

// Fingerprint returns a canonical description of every field, used by
// internal/simcache to key cached simulation results. It must change
// whenever any field that can influence simulation output changes, so
// it simply renders the whole struct; adding a field therefore
// invalidates old cache entries, which is the safe direction.
func (c Config) Fingerprint() string {
	return fmt.Sprintf("cache.Config%+v", c)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0:
		return fmt.Errorf("cache %s: non-positive size %d", c.Name, c.SizeBytes)
	case c.LineBytes <= 0 || c.LineBytes > 64:
		return fmt.Errorf("cache %s: line size %d out of range (1..64)", c.Name, c.LineBytes)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	case c.Ways <= 0:
		return fmt.Errorf("cache %s: non-positive associativity %d", c.Name, c.Ways)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by line*ways", c.Name, c.SizeBytes)
	case c.ChunkBytes < 0:
		return fmt.Errorf("cache %s: negative chunk size %d", c.Name, c.ChunkBytes)
	case c.ChunkBytes > 0 && (c.ChunkBytes&(c.ChunkBytes-1) != 0 || c.ChunkBytes > c.LineBytes):
		return fmt.Errorf("cache %s: chunk size %d not a power of two dividing line size %d",
			c.Name, c.ChunkBytes, c.LineBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// EffectiveChunkBytes returns the lifetime granule (ChunkBytes, or 1
// when unset).
func (c Config) EffectiveChunkBytes() int {
	if c.ChunkBytes <= 0 {
		return 1
	}
	return c.ChunkBytes
}

// NumSets returns the set count of this geometry.
func (c Config) NumSets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// NumLines returns the line count of this geometry.
func (c Config) NumLines() int { return c.SizeBytes / c.LineBytes }

// DataBits returns the data-array size in bits.
func (c Config) DataBits() uint64 { return uint64(c.SizeBytes) * 8 }

// TagBitsPerLine returns the width of one tag entry (tag + valid + dirty)
// assuming 44-bit physical addresses.
func (c Config) TagBitsPerLine() uint64 {
	idx := log2(c.NumSets())
	off := log2(c.LineBytes)
	const physBits = 44
	tag := physBits - idx - off
	if tag < 1 {
		tag = 1
	}
	return uint64(tag) + 2
}

// TagBits returns the tag-array size in bits.
func (c Config) TagBits() uint64 { return c.TagBitsPerLine() * uint64(c.NumLines()) }

// Bits returns data + tag bits for this geometry.
func (c Config) Bits() uint64 { return c.DataBits() + c.TagBits() }

// Writeback describes a dirty line leaving a cache.
type Writeback struct {
	Addr      uint64 // line-aligned address
	DirtyMask uint64 // bit i set = byte i of the line is dirty
}

type line struct {
	tag   uint64
	valid bool
	// watch is 1 + the index of this line's entry in Cache.watched, or 0
	// when no fate watch is armed on it. It sits in valid's padding, so
	// the line stays 96 bytes, and is read only behind the watched-nil
	// gate, never on a normal simulation.
	watch int32
	lru   int64 // last-use time

	fillTime   int64
	lastAceEnd int64

	// dirty has bit ci set when chunk ci is in stWrite — evictions of
	// clean lines skip the chunk walk, dirty ones visit only set bits.
	dirty uint64

	chunkState []uint8
	chunkTime  []int64
}

// Fate is one resolved fault-injection fate watch (DESIGN.md §9): the
// caller's watch id and whether the watched interval closed ACE (the
// flipped bit would have reached architectural state) or un-ACE (the
// flip was masked by an overwrite or a clean eviction).
type Fate struct {
	ID  int32
	ACE bool
}

// watch observes the microarchitectural fate of one bit for the
// fault-injection engine (internal/inject): armed before a replay
// starts, it waits for the first lifetime transition on its target
// whose interval contains the injection timestamp, and resolves to the
// Biswas rule the ACE accounting applies to that interval, observed for
// a single (line, chunk) or tag entry. Watches are pure observers, so
// any number can ride one replay and each resolves exactly as it would
// alone.
type watch struct {
	id    int32
	ci    int32 // chunk index of a data watch; -1 for a tag watch
	cycle int64 // injection timestamp
}

// lineWatches holds the armed, unresolved watches on one line. A watch
// leaves the list the moment it resolves, so an access scans only the
// still-open watches of the line it touches.
type lineWatches struct {
	ln *line
	ws []watch
}

// fire queues the resolution of lw.ws[i] and drops it from the list.
// List order carries no meaning: watches resolve independently.
func (c *Cache) fire(lw *lineWatches, i int, ace bool) {
	*c.fates = append(*c.fates, Fate{ID: lw.ws[i].id, ACE: ace})
	last := len(lw.ws) - 1
	lw.ws[i] = lw.ws[last]
	lw.ws = lw.ws[:last]
}

// Cache is a set-associative writeback cache with LRU replacement and
// chunk-granular lifetime ACE accounting. Not safe for concurrent use.
type Cache struct {
	cfg        Config
	sets       int
	ways       int
	lineBits   uint
	setShift   uint // log2(sets)
	setMask    uint64
	chunkBytes int
	chunkBits  uint
	cpl        int    // chunks per line
	chunkUnit  uint64 // low chunkBytes bits set (byte mask of one chunk)
	lines      []line // sets*ways, way-major within a set

	aceChunkCycles uint64 // data-array ACE, in chunk-cycles
	tagAceCycles   uint64 // tag-array ACE, in line-cycles
	windowStart    int64

	// One-line MRU memo for Access: loops touch the same line many times
	// in a row (sequential fetch, the stressmark's line sweep), so
	// remembering the last hit line skips the associative walk. epoch is
	// bumped by every fill and eviction, invalidating the memo whenever
	// residency changes anywhere in the cache.
	epoch     uint64
	memoLine  *line
	memoAddr  uint64
	memoEpoch uint64

	// watched indexes the armed fault-injection fate watches by line
	// (line.watch points into it); nil on every normal simulation, so the
	// lifetime hot paths pay a single predictable nil-check branch.
	// Batched campaign replays arm one watch per co-replayed trial.
	// fates is the caller's queue the resolutions are appended to.
	watched []lineWatches
	fates   *[]Fate

	// Stats since the last ResetStats. Accesses/Misses count demand
	// traffic (reads and writes issued to this cache); WritebackAccesses
	// and WritebackMisses count dirty-victim masks applied from an upper
	// level and the write-allocate fills they trigger, which are not
	// demand traffic and therefore excluded from MissRate.
	Accesses          uint64
	Misses            uint64
	Writebacks        uint64
	WritebackAccesses uint64
	WritebackMisses   uint64
}

// New builds a cache; the configuration must validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	cb := cfg.EffectiveChunkBytes()
	c := &Cache{
		cfg:        cfg,
		sets:       sets,
		ways:       cfg.Ways,
		setShift:   uint(log2(sets)),
		setMask:    uint64(sets - 1),
		chunkBytes: cb,
		chunkBits:  uint(log2(cb)),
		cpl:        cfg.LineBytes / cb,
		lines:      make([]line, sets*cfg.Ways),
	}
	if cb >= 64 {
		c.chunkUnit = ^uint64(0)
	} else {
		c.chunkUnit = (uint64(1) << uint(cb)) - 1
	}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	// One backing allocation for all per-chunk arrays.
	states := make([]uint8, sets*cfg.Ways*c.cpl)
	times := make([]int64, sets*cfg.Ways*c.cpl)
	for i := range c.lines {
		c.lines[i].chunkState = states[i*c.cpl : (i+1)*c.cpl]
		c.lines[i].chunkTime = times[i*c.cpl : (i+1)*c.cpl]
	}
	return c, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Lines returns the total number of lines.
func (c *Cache) Lines() int { return c.sets * c.cfg.Ways }

// DataBits returns the size of the data array in bits.
func (c *Cache) DataBits() uint64 { return c.cfg.DataBits() }

// TagBits returns the size of the whole tag array in bits.
func (c *Cache) TagBits() uint64 { return c.cfg.TagBits() }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	l := addr >> c.lineBits
	return int(l & c.setMask), l >> c.setShift
}

// aceBytes returns the accumulated data-array ACE in byte-cycles. Every
// byte of a chunk shares its (state, time), so the per-chunk total
// scales exactly.
func (c *Cache) aceBytes() uint64 { return c.aceChunkCycles * uint64(c.chunkBytes) }

func (c *Cache) find(addr uint64) *line {
	set, tag := c.index(addr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == tag {
			return ln
		}
	}
	return nil
}

// selectVictim picks the way to fill in set: the first invalid way found
// by the scan, else the LRU way. The scan order reproduces the original
// engine exactly (it starts from way 0 but tests ways 1.. for
// invalidity first), which keeps fill placement — and therefore every
// downstream eviction — bit-identical.
func (c *Cache) selectVictim(set int) *line {
	base := set * c.ways
	victim := &c.lines[base]
	for w := 1; w < c.ways; w++ {
		ln := &c.lines[base+w]
		if !ln.valid {
			return ln
		}
		if victim.valid && ln.lru < victim.lru {
			victim = ln
		}
	}
	return victim
}

// chunkSpan converts a byte (offset, size) access into a chunk index and
// count, panicking unless both are chunk-aligned — the contract that
// makes chunk tracking lossless. The panic is outlined so the check
// inlines into the access fast paths.
func (c *Cache) chunkSpan(addr uint64, size int) (ci, n int) {
	if (addr|uint64(size))&uint64(c.chunkBytes-1) != 0 {
		c.alignPanic(addr, size)
	}
	return int(addr&uint64(c.cfg.LineBytes-1)) >> c.chunkBits, size >> c.chunkBits
}

func (c *Cache) alignPanic(addr uint64, size int) {
	panic(fmt.Sprintf("cache %s: access %#x size %d not aligned to %d-byte chunks",
		c.cfg.Name, addr, size, c.chunkBytes))
}

// Access is the demand-access fast path: one associative walk; on a hit
// the chunk lifetimes are updated at time now and true is returned, on a
// miss nothing changes. With SetDebugChecks the line-crossing invariant
// is verified.
func (c *Cache) Access(now int64, addr uint64, size int, write bool) bool {
	la := addr &^ uint64(c.cfg.LineBytes-1)
	var ln *line
	if c.memoEpoch == c.epoch && c.memoAddr == la && c.memoLine != nil {
		ln = c.memoLine
	} else {
		ln = c.find(addr)
		if ln == nil {
			return false
		}
		c.memoLine = ln
		c.memoAddr = la
		c.memoEpoch = c.epoch
	}
	if debugChecks {
		if off := int(addr & uint64(c.cfg.LineBytes-1)); off+size > c.cfg.LineBytes {
			panic(fmt.Sprintf("cache %s: access %#x size %d crosses line boundary", c.cfg.Name, addr, size))
		}
	}
	ci, n := c.chunkSpan(addr, size)
	if c.watched != nil {
		c.watchSpan(ln, ci, n, now, write)
	}
	ln.lru = now
	c.Accesses++
	if write {
		for k := 0; k < n; k++ {
			c.closeChunkWrite(ln, ci+k, now)
		}
	} else {
		for k := 0; k < n; k++ {
			c.closeChunkRead(ln, ci+k, now)
		}
	}
	return true
}

// applyMask marks the chunks covered by the byte mask as written at now,
// panicking on a mask that covers part of a chunk.
func (c *Cache) applyMask(ln *line, now int64, mask uint64) {
	for ci := 0; ci < c.cpl; ci++ {
		sub := (mask >> uint(ci<<c.chunkBits)) & c.chunkUnit
		if sub == 0 {
			continue
		}
		if sub != c.chunkUnit {
			panic(fmt.Sprintf("cache %s: writeback mask %#x covers a partial %d-byte chunk",
				c.cfg.Name, mask, c.chunkBytes))
		}
		if c.watched != nil {
			c.watchSpan(ln, ci, 1, now, true)
		}
		c.closeChunkWrite(ln, ci, now)
	}
}

// closeChunkRead ends a chunk's current lifetime interval with a read at
// time now and begins the next: fill→read, read→read and write→read are
// all ACE.
//
// The chunk-transition helpers carry no fate-watch hooks: they are
// inlined into every access fast path, and even a nil-check call here
// blows the inlining budget (measured +65% on the baseline simulation).
// Watches instead resolve in the outer access functions, which call
// watchSpan *before* the transition loop runs.
func (c *Cache) closeChunkRead(ln *line, ci int, now int64) {
	st := ln.chunkState[ci]
	if st != stInvalid {
		c.addAce(ln, ln.chunkTime[ci], now)
	}
	ln.chunkState[ci] = stRead
	if st == stWrite {
		ln.dirty &^= 1 << uint(ci)
	}
	ln.chunkTime[ci] = now
}

// closeChunkWrite: any transition into a write is un-ACE for the closed
// interval.
func (c *Cache) closeChunkWrite(ln *line, ci int, now int64) {
	ln.chunkState[ci] = stWrite
	ln.dirty |= 1 << uint(ci)
	ln.chunkTime[ci] = now
}

// watchSpan resolves armed fate watches when an access is about to
// close the chunk intervals [ci, ci+n) of ln at time now: closing by a
// read is ACE (the flipped bits were consumed), closing by a write is
// un-ACE (they were overwritten). Callers invoke it before their
// transition loop, while the interval starts are still the pre-access
// chunk times, and only behind a c.watched nil check.
func (c *Cache) watchSpan(ln *line, ci, n int, now int64, write bool) {
	if ln.watch == 0 {
		return
	}
	lw := &c.watched[ln.watch-1]
	lo, hi := int32(ci), int32(ci+n)
	for i := 0; i < len(lw.ws); {
		w := &lw.ws[i]
		// A tag watch (ci -1) is below every span. The closing interval
		// is [chunkTime, now) of the current residency; the flip
		// participates only if it lies inside.
		if w.ci < lo || w.ci >= hi || w.cycle < ln.chunkTime[w.ci] || w.cycle >= now {
			i++
			continue
		}
		c.fire(lw, i, !write)
	}
}

// watchEvict resolves armed fate watches at an eviction of the watched
// line: a dirty watched chunk ends ACE (its writeback is architecturally
// required), a clean one un-ACE; a tag watch ends ACE iff the line's last
// ACE interval extends past the watched timestamp. Called after the
// dirty-chunk walk (which can advance lastAceEnd) and before the dirty
// mask is cleared.
func (c *Cache) watchEvict(ln *line, now int64) {
	if ln.watch == 0 {
		return
	}
	lw := &c.watched[ln.watch-1]
	for i := 0; i < len(lw.ws); {
		w := &lw.ws[i]
		if w.ci < 0 {
			if w.cycle >= ln.fillTime && w.cycle < now {
				c.fire(lw, i, ln.lastAceEnd > w.cycle)
				continue
			}
		} else if w.cycle >= ln.chunkTime[w.ci] && w.cycle < now {
			c.fire(lw, i, ln.dirty>>uint(w.ci)&1 == 1)
			continue
		}
		i++
	}
}

// AddWatch arms a fault-injection fate watch on one bit of this cache —
// bits below DataBits address the data array (line-major, byte-major
// within the line), the rest the tag array (one tag entry per line) —
// with the given injection timestamp. Its resolution is appended to
// *fates under id, at the access or eviction that decides it; every
// watch armed until the next ClearWatches must name the same queue. Any
// number of watches may be armed at once; each resolves independently. Arm before the replay starts (accesses carry
// timestamps ahead of the pipeline's wall clock, so the covering
// lifetime interval may be closed by an access executed before the
// injection cycle is reached). A watch still unresolved after Finalize
// was never live at its timestamp: callers treat it as masked. Reset,
// Restore and ClearWatches disarm all watches.
func (c *Cache) AddWatch(bit uint64, cycle int64, id int32, fates *[]Fate) error {
	if bit >= c.cfg.Bits() {
		return fmt.Errorf("cache %s: watch bit %d out of range (%d bits)", c.cfg.Name, bit, c.cfg.Bits())
	}
	var ln *line
	w := watch{id: id, ci: -1, cycle: cycle}
	if bit < c.cfg.DataBits() {
		byteIdx := int(bit >> 3)
		ln = &c.lines[byteIdx/c.cfg.LineBytes]
		w.ci = int32((byteIdx % c.cfg.LineBytes) >> c.chunkBits)
	} else {
		ln = &c.lines[(bit-c.cfg.DataBits())/c.cfg.TagBitsPerLine()]
	}
	if ln.watch == 0 {
		c.watched = append(c.watched, lineWatches{ln: ln})
		ln.watch = int32(len(c.watched))
	}
	lw := &c.watched[ln.watch-1]
	lw.ws = append(lw.ws, w)
	c.fates = fates
	return nil
}

// ClearWatches disarms all fate watches.
func (c *Cache) ClearWatches() {
	for i := range c.watched {
		c.watched[i].ln.watch = 0
	}
	c.watched = nil
	c.fates = nil
}

func (c *Cache) addAce(ln *line, t0, t1 int64) {
	if t0 < c.windowStart {
		t0 = c.windowStart
	}
	if t1 > t0 {
		c.aceChunkCycles += uint64(t1 - t0)
		if t1 > ln.lastAceEnd {
			ln.lastAceEnd = t1
		}
	}
}

// fillLine initialises victim as a freshly filled line at time now.
func (c *Cache) fillLine(victim *line, tag uint64, now int64) {
	c.epoch++
	victim.valid = true
	victim.tag = tag
	victim.lru = now
	victim.fillTime = now
	victim.lastAceEnd = now
	victim.dirty = 0
	for ci := 0; ci < c.cpl; ci++ {
		victim.chunkState[ci] = stFill
		victim.chunkTime[ci] = now
	}
}

// FillTouch is the L1 miss fast path: allocate the line containing addr
// (whole-line fill at fillT, evicting the LRU way) and immediately apply
// the demand access of size bytes at touchT, in one victim selection and
// no residency re-walk.
func (c *Cache) FillTouch(fillT, touchT int64, addr uint64, size int, write bool) (wb Writeback, dirty bool) {
	if debugChecks {
		if c.find(addr) != nil {
			panic(fmt.Sprintf("cache %s: double fill of %#x", c.cfg.Name, addr))
		}
		if off := int(addr & uint64(c.cfg.LineBytes-1)); off+size > c.cfg.LineBytes {
			panic(fmt.Sprintf("cache %s: access %#x size %d crosses line boundary", c.cfg.Name, addr, size))
		}
	}
	set, tag := c.index(addr)
	victim := c.selectVictim(set)
	if victim.valid {
		wb, dirty = c.evictLine(victim, fillT, set)
	}
	c.Misses++
	c.fillLine(victim, tag, fillT)
	ci, n := c.chunkSpan(addr, size)
	if c.watched != nil {
		c.watchSpan(victim, ci, n, touchT, write)
	}
	victim.lru = touchT
	c.Accesses++
	if write {
		for k := 0; k < n; k++ {
			c.closeChunkWrite(victim, ci+k, touchT)
		}
	} else {
		for k := 0; k < n; k++ {
			c.closeChunkRead(victim, ci+k, touchT)
		}
	}
	return wb, dirty
}

// ReadLine is the L2 fast path for an L1 miss: one associative walk that
// reads the whole line containing addr — at tHit when resident, or at
// tMiss after evicting a victim and filling (the fill→read transition at
// equal times contributes no ACE, so the fill is folded into the read).
// Reports whether the line was resident. A dirty victim's writeback
// drains to memory and is not returned.
func (c *Cache) ReadLine(tHit, tMiss int64, addr uint64) (hit bool) {
	set, tag := c.index(addr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == tag {
			if c.watched != nil {
				c.watchSpan(ln, 0, c.cpl, tHit, false)
			}
			ln.lru = tHit
			c.Accesses++
			for ci := 0; ci < c.cpl; ci++ {
				c.closeChunkRead(ln, ci, tHit)
			}
			return true
		}
	}
	victim := c.selectVictim(set)
	if victim.valid {
		c.evictLine(victim, tMiss, set)
	}
	c.epoch++
	c.Misses++
	c.Accesses++
	victim.valid = true
	victim.tag = tag
	victim.lru = tMiss
	victim.fillTime = tMiss
	victim.lastAceEnd = tMiss
	victim.dirty = 0
	for ci := 0; ci < c.cpl; ci++ {
		victim.chunkState[ci] = stRead
		victim.chunkTime[ci] = tMiss
	}
	return false
}

// WriteMask is the writeback-apply fast path: one associative walk that
// applies an upper-level dirty mask at time now, write-allocating the
// line first when it is not resident (the fill→write transition at
// equal times is un-ACE, so the fill folds into the mask application).
func (c *Cache) WriteMask(now int64, addr uint64, mask uint64) {
	set, tag := c.index(addr)
	ln := c.find(addr)
	if ln == nil {
		ln = c.selectVictim(set)
		if ln.valid {
			c.evictLine(ln, now, set)
		}
		c.WritebackMisses++
		c.fillLine(ln, tag, now)
	}
	ln.lru = now
	c.WritebackAccesses++
	c.applyMask(ln, now, mask)
}

// evictLine closes all chunk lifetimes and the tag lifetime of ln.
func (c *Cache) evictLine(ln *line, now int64, set int) (wb Writeback, dirty bool) {
	c.epoch++
	var mask uint64
	// Only dirty chunks contribute at eviction (write→evict ACE); clean
	// lines skip the walk. Chunk states are not reset: an invalid line's
	// states are never read, and every fill rewrites all of them.
	for d := ln.dirty; d != 0; d &= d - 1 {
		ci := bits.TrailingZeros64(d)
		// write→evict: writeback data is ACE.
		c.addAce(ln, ln.chunkTime[ci], now)
		mask |= c.chunkUnit << uint(ci<<c.chunkBits)
	}
	if c.watched != nil {
		c.watchEvict(ln, now)
	}
	ln.dirty = 0
	// Tag approximation: ACE from fill to last ACE byte-interval end.
	t0 := ln.fillTime
	if t0 < c.windowStart {
		t0 = c.windowStart
	}
	if ln.lastAceEnd > t0 {
		c.tagAceCycles += uint64(ln.lastAceEnd - t0)
	}
	ln.valid = false
	if mask != 0 {
		c.Writebacks++
		lineAddr := (ln.tag<<c.setShift | uint64(set)) << c.lineBits
		return Writeback{Addr: lineAddr, DirtyMask: mask}, true
	}
	return Writeback{}, false
}

// Finalize closes every resident line at time now, as if evicted: dirty
// chunks end ACE (their writeback remains architecturally required),
// clean chunks end un-ACE. Call exactly once, at the end of a
// measurement.
func (c *Cache) Finalize(now int64) {
	for set := 0; set < c.sets; set++ {
		for w := 0; w < c.cfg.Ways; w++ {
			ln := &c.lines[set*c.cfg.Ways+w]
			if ln.valid {
				c.evictLine(ln, now, set)
			}
		}
	}
}

// ResetACE restarts ACE measurement at time now without disturbing cache
// contents: used at the end of a warmup window. Open chunk intervals are
// clipped at now.
func (c *Cache) ResetACE(now int64) {
	c.aceChunkCycles, c.tagAceCycles = 0, 0
	c.windowStart = now
	for i := range c.lines {
		ln := &c.lines[i]
		if !ln.valid {
			continue
		}
		if ln.fillTime < now {
			ln.fillTime = now
		}
		if ln.lastAceEnd < now {
			ln.lastAceEnd = now
		}
		// Chunk interval starts are left alone deliberately: an interval
		// spanning the boundary is clipped in addAce via windowStart.
	}
}

// ResetStats clears hit/miss counters.
func (c *Cache) ResetStats() {
	c.Accesses, c.Misses, c.Writebacks = 0, 0, 0
	c.WritebackAccesses, c.WritebackMisses = 0, 0
}

// Reset returns the cache to its power-on state — all lines invalid, ACE
// accumulators and statistics zeroed — without reallocating the line or
// per-chunk arrays. A Reset cache behaves identically to a fresh New one
// (fills rewrite every per-chunk field before it is read).
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i].valid = false
	}
	c.aceChunkCycles, c.tagAceCycles = 0, 0
	c.windowStart = 0
	c.memoLine = nil
	c.memoEpoch, c.memoAddr = 0, 0
	c.epoch++
	c.ClearWatches()
	c.ResetStats()
}

// DataAVF returns the data-array AVF over a window of cycles cycles.
func (c *Cache) DataAVF(cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(c.aceBytes()) / (float64(c.cfg.SizeBytes) * float64(cycles))
}

// TagAVF returns the (approximated) tag-array AVF.
func (c *Cache) TagAVF(cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(c.tagAceCycles) / (float64(c.Lines()) * float64(cycles))
}

// AVF returns the bit-weighted AVF over data and tag arrays.
func (c *Cache) AVF(cycles int64) float64 {
	db, tb := float64(c.DataBits()), float64(c.TagBits())
	return (c.DataAVF(cycles)*db + c.TagAVF(cycles)*tb) / (db + tb)
}

// MissRate returns misses over demand accesses. Fills count as misses;
// demand touches count as accesses. Writeback-apply traffic from an
// upper level (WritebackAccesses) is excluded — see TrafficMissRate for
// the all-traffic ratio.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// TrafficMissRate returns all misses (demand and write-allocate) over
// all traffic including writeback-apply accesses from an upper level.
// This is the quantity the pipeline has historically reported as the L2
// miss rate (locked by the golden tests); MissRate reports the
// demand-only ratio.
func (c *Cache) TrafficMissRate() float64 {
	total := c.Accesses + c.WritebackAccesses
	if total == 0 {
		return 0
	}
	return float64(c.Misses+c.WritebackMisses) / float64(total)
}

func log2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}
