// Package simcache is a content-addressed memoisation engine for
// simulation results. Every simulation in this repository is a pure
// function of (engine version, microarchitecture configuration, program,
// run budget) — the determinism the paper's automated methodology relies
// on for reproducible stressmark search — so a result can be served from
// a cache keyed by a canonical fingerprint of those inputs and is
// bit-identical to re-running the simulator.
//
// The store is two-tier:
//
//   - an in-memory map, shared by every experiment and GA search in the
//     process (duplicate genomes across generations, the 33-workload
//     suite shared by Figures 3/4/6/7, Table III, ...);
//   - an optional on-disk tier (one CRC-framed file per key, written
//     atomically via internal/persist), shared across processes and
//     runs. Reads validate the frame before decoding: a torn, truncated
//     or bit-flipped entry is quarantined to <dir>/quarantine/ and
//     served as a miss — corruption costs a re-simulation, never a
//     crash and never a wrong result (DESIGN.md §11).
//
// Concurrent requests for the same key are deduplicated (singleflight):
// the first caller simulates, the rest wait and share the result.
//
// Keys incorporate EngineVersion, so entries written by an older
// simulator never match and stale disk tiers self-invalidate (DESIGN.md
// §7 gives the bump rules). Results handed out by the store are shared —
// callers must treat *avf.Result as immutable, which every consumer in
// this repository already does.
package simcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"avfstress/internal/avf"
	"avfstress/internal/persist"
)

// EngineVersion names the simulation semantics of internal/pipe,
// internal/cache and internal/avf. It MUST be bumped by any change that
// alters the bits of any *avf.Result for any (config, program, budget) —
// see DESIGN.md §7. It participates in every key, so a bump invalidates
// both tiers at once. "v3" is the PR 3 state of the engine (event-driven
// pipeline, chunk-granular lifetime tracking).
const EngineVersion = "v3"

// Key is the content address of one simulation: a SHA-256 over the
// engine version and the canonical input fingerprints.
type Key [sha256.Size]byte

// Hex renders the key as the file-name-safe hex string used by the disk
// tier.
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// Options configures a Store.
type Options struct {
	// Dir enables the disk tier under this directory ("" = memory only).
	// Entries land in Dir/<version>/<key>.json so stale engine versions
	// are inert and easy to sweep.
	Dir string
	// Version overrides EngineVersion (tests only).
	Version string
}

// blobCapBytes bounds the in-memory blob tier, so a long-lived daemon's
// accumulated slice tables and golden info cannot grow without limit.
// Past the cap, least-recently-used blobs are evicted from memory —
// counted in Stats.Evicted — while their disk entries remain, so an
// eviction degrades a future hit from memory to disk, never to a
// re-simulation.
const blobCapBytes int64 = 1 << 30

// Store is a handle on the two-tier result cache. The zero value is not
// usable; construct with New. A nil *Store is valid everywhere and
// disables caching (Do just runs the simulation), so call sites need no
// branching.
//
// Handles returned by View share the underlying tiers, dedup state and
// store-wide counters, but additionally count their own traffic — the
// per-job cache-effectiveness attribution the avfstressd service
// reports for concurrent clients sharing one store.
type Store struct {
	st  *state   // shared across all views of one store
	loc counters // this handle's own traffic
}

// state is the shared heart of a store: tiers, dedup and global
// counters.
type state struct {
	version string
	dir     string // "" = memory only

	mu     sync.Mutex
	mem    map[Key]*avf.Result
	flight map[Key]*call

	// The blob tier memoises opaque byte values under the same versioned
	// content addressing — fault-injection slice outcome tables and
	// golden-run replay facts, keyed by golden fingerprint. It shares the
	// store's counters, dedup semantics and disk directory (".bin"
	// entries). The memory side is LRU-bounded by blobCap
	// (blobCapBytes; tests lower it): blobLRU holds a last-touch tick per
	// resident key and blobBytes the resident payload total.
	blobMem    map[Key][]byte
	blobFlight map[Key]*blobCall
	blobLRU    map[Key]int64
	blobTick   int64
	blobBytes  int64
	blobCap    int64

	glob counters
}

// counters is one set of traffic counters.
type counters struct {
	memHits     atomic.Int64
	diskHits    atomic.Int64
	sims        atomic.Int64
	dedups      atomic.Int64
	misses      atomic.Int64
	evicted     atomic.Int64
	quarantined atomic.Int64
	// Tier-attribution counters: blobHits/blobMisses are the blob-tier
	// share of the hit/miss traffic above (so per-handle attribution
	// distinguishes result entries from blob entries).
	blobHits   atomic.Int64
	blobMisses atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		MemHits:     c.memHits.Load(),
		DiskHits:    c.diskHits.Load(),
		Simulated:   c.sims.Load(),
		Deduped:     c.dedups.Load(),
		Misses:      c.misses.Load(),
		Evicted:     c.evicted.Load(),
		Quarantined: c.quarantined.Load(),
		BlobHits:    c.blobHits.Load(),
		BlobMisses:  c.blobMisses.Load(),
	}
}

// call is one in-flight simulation other goroutines can wait on.
type call struct {
	done chan struct{}
	res  *avf.Result
	err  error
}

// blobCall is one in-flight blob computation.
type blobCall struct {
	done chan struct{}
	val  []byte
	err  error
}

// New returns an empty store. With a non-empty Dir the disk tier is
// created lazily on first write.
func New(opts Options) *Store {
	v := opts.Version
	if v == "" {
		v = EngineVersion
	}
	st := &state{
		version:    v,
		mem:        map[Key]*avf.Result{},
		flight:     map[Key]*call{},
		blobMem:    map[Key][]byte{},
		blobFlight: map[Key]*blobCall{},
		blobLRU:    map[Key]int64{},
		blobCap:    blobCapBytes,
	}
	if opts.Dir != "" {
		st.dir = filepath.Join(opts.Dir, v)
	}
	return &Store{st: st}
}

// View returns a new handle on the same store: identical tiers, dedup
// and store-wide Stats, but a fresh LocalStats counter observing only
// traffic through this handle. Safe (and nil) on a nil store.
func (s *Store) View() *Store {
	if s == nil {
		return nil
	}
	return &Store{st: s.st}
}

// Key builds the content address for the given canonical fingerprint
// parts (typically: config fingerprint, program or knobs identity, run
// budget fingerprint). Parts are length-prefixed, so no concatenation of
// distinct part lists collides, and the store's engine version is always
// included. Safe on a nil store.
func (s *Store) Key(parts ...string) Key {
	v := EngineVersion
	if s != nil {
		v = s.st.version
	}
	// Keys run to about a kilobyte (a configuration fingerprint alone
	// is ~800 bytes); the stack buffer holds them without a heap copy.
	n := 8 + len(v)
	for _, p := range parts {
		n += 8 + len(p)
	}
	var stack [2048]byte
	buf := stack[:0]
	if n > len(stack) {
		buf = make([]byte, 0, n)
	}
	write := func(p string) {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(p)))
		buf = append(buf, p...)
	}
	write(v)
	for _, p := range parts {
		write(p)
	}
	return sha256.Sum256(buf)
}

// Do returns the cached result for key, or runs simulate, stores its
// result in both tiers and returns it. Concurrent calls with the same
// key run simulate once. Errors are returned to every waiter but never
// cached. On a nil store, Do simply runs simulate.
func (s *Store) Do(key Key, simulate func() (*avf.Result, error)) (*avf.Result, error) {
	if s == nil {
		return simulate()
	}
	st := s.st
	st.mu.Lock()
	if r, ok := st.mem[key]; ok {
		st.mu.Unlock()
		st.glob.memHits.Add(1)
		s.loc.memHits.Add(1)
		return r, nil
	}
	if c, ok := st.flight[key]; ok {
		st.mu.Unlock()
		st.glob.dedups.Add(1)
		s.loc.dedups.Add(1)
		<-c.done
		return c.res, c.err
	}
	c := &call{done: make(chan struct{})}
	st.flight[key] = c
	st.mu.Unlock()

	var err error
	r := s.loadDisk(key)
	if r != nil {
		st.glob.diskHits.Add(1)
		s.loc.diskHits.Add(1)
	} else {
		r, err = simulate()
		st.glob.sims.Add(1)
		s.loc.sims.Add(1)
		if err == nil {
			s.saveDisk(key, r)
		}
	}
	c.res, c.err = r, err
	st.mu.Lock()
	delete(st.flight, key)
	if err == nil {
		st.mem[key] = r
	}
	st.mu.Unlock()
	close(c.done)
	return r, err
}

// DoBlob is Do for small opaque byte values: it returns the cached
// bytes for key, or runs compute, stores its result in both tiers
// (".bin" entries beside the ".json" results on disk) and returns it.
// Callers must treat returned slices as immutable — like results, blobs
// are shared across all waiters and future hits. The fault-injection
// campaign engine memoises one outcome table per replay slice this way,
// keyed by (golden-run fingerprint, the slice's fault set), so warm
// re-runs replay nothing.
func (s *Store) DoBlob(key Key, compute func() ([]byte, error)) ([]byte, error) {
	if s == nil {
		return compute()
	}
	st := s.st
	st.mu.Lock()
	if v, ok := st.blobMem[key]; ok {
		st.touchBlob(key)
		st.mu.Unlock()
		st.glob.memHits.Add(1)
		s.loc.memHits.Add(1)
		st.glob.blobHits.Add(1)
		s.loc.blobHits.Add(1)
		return v, nil
	}
	if c, ok := st.blobFlight[key]; ok {
		st.mu.Unlock()
		st.glob.dedups.Add(1)
		s.loc.dedups.Add(1)
		<-c.done
		return c.val, c.err
	}
	c := &blobCall{done: make(chan struct{})}
	st.blobFlight[key] = c
	st.mu.Unlock()

	var err error
	v, ok := s.loadBlob(key)
	if ok {
		st.glob.diskHits.Add(1)
		s.loc.diskHits.Add(1)
		st.glob.blobHits.Add(1)
		s.loc.blobHits.Add(1)
	} else {
		v, err = compute()
		st.glob.sims.Add(1)
		s.loc.sims.Add(1)
		if err == nil {
			s.saveBlob(key, v)
		}
	}
	c.val, c.err = v, err
	st.mu.Lock()
	delete(st.blobFlight, key)
	if err == nil {
		st.insertBlob(key, v, &s.loc)
	}
	st.mu.Unlock()
	close(c.done)
	return v, err
}

// GetBlob returns the cached blob for key from either tier, or (nil,
// false) — counted in Stats.Misses — leaving the computation to the
// caller (pair with PutBlob). Unlike DoBlob it never blocks on an
// in-flight computation. Fault-injection campaigns use it to load
// golden-run replay facts, whose payload they decode themselves: a
// payload that fails to decode is discarded and rebuilt, which DoBlob's
// compute-once contract cannot express. Always a miss on a nil store.
func (s *Store) GetBlob(key Key) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	st := s.st
	st.mu.Lock()
	if v, ok := st.blobMem[key]; ok {
		st.touchBlob(key)
		st.mu.Unlock()
		st.glob.memHits.Add(1)
		s.loc.memHits.Add(1)
		st.glob.blobHits.Add(1)
		s.loc.blobHits.Add(1)
		return v, true
	}
	st.mu.Unlock()
	if v, ok := s.loadBlob(key); ok {
		st.glob.diskHits.Add(1)
		s.loc.diskHits.Add(1)
		st.glob.blobHits.Add(1)
		s.loc.blobHits.Add(1)
		st.mu.Lock()
		st.insertBlob(key, v, &s.loc)
		st.mu.Unlock()
		return v, true
	}
	st.glob.misses.Add(1)
	s.loc.misses.Add(1)
	st.glob.blobMisses.Add(1)
	s.loc.blobMisses.Add(1)
	return nil, false
}

// PutBlob stores a blob computed outside DoBlob in both tiers. The
// caller must treat v as immutable afterwards (it is shared with every
// future hit). No-op on a nil store.
func (s *Store) PutBlob(key Key, v []byte) {
	if s == nil {
		return
	}
	st := s.st
	st.mu.Lock()
	st.insertBlob(key, v, &s.loc)
	st.mu.Unlock()
	s.saveBlob(key, v)
}

// touchBlob marks key most-recently-used. Caller holds mu.
func (st *state) touchBlob(key Key) {
	st.blobTick++
	st.blobLRU[key] = st.blobTick
}

// insertBlob adds (or replaces) a resident blob, then evicts
// least-recently-used entries until the memory tier fits the cap again.
// Evicted entries keep their disk copies, so the worst case of an
// eviction is a future disk hit. Caller holds mu.
func (st *state) insertBlob(key Key, v []byte, loc *counters) {
	if old, ok := st.blobMem[key]; ok {
		st.blobBytes -= int64(len(old))
	}
	st.blobMem[key] = v
	st.blobBytes += int64(len(v))
	st.touchBlob(key)
	for st.blobBytes > st.blobCap && len(st.blobMem) > 1 {
		var victim Key
		best := st.blobTick + 1
		for k, tick := range st.blobLRU {
			if tick < best {
				best, victim = tick, k
			}
		}
		if victim == key {
			break // never evict the entry being inserted
		}
		st.blobBytes -= int64(len(st.blobMem[victim]))
		delete(st.blobMem, victim)
		delete(st.blobLRU, victim)
		st.glob.evicted.Add(1)
		loc.evicted.Add(1)
	}
}

func (s *Store) blobPath(key Key) string { return filepath.Join(s.st.dir, key.Hex()+".bin") }

// QuarantineDirName is the subdirectory of the disk tier's version
// directory that corrupt entries are moved into.
const QuarantineDirName = "quarantine"

// quarantine moves a corrupt disk entry out of the live tier into
// <dir>/quarantine/ (preserving the bytes for post-mortem) and counts
// it. If the move fails the entry is deleted instead — a corrupt entry
// must never be offered to a future read. Best-effort, like every disk
// operation in the store.
func (s *Store) quarantine(path string) {
	qdir := filepath.Join(s.st.dir, QuarantineDirName)
	if err := os.MkdirAll(qdir, 0o755); err != nil || os.Rename(path, filepath.Join(qdir, filepath.Base(path))) != nil {
		os.Remove(path)
	}
	s.st.glob.quarantined.Add(1)
	s.loc.quarantined.Add(1)
}

// readEntry reads one CRC-framed disk entry and returns its payload.
// A missing (or unreadable) file is a plain miss; an entry that fails
// frame validation — torn write, truncation, any flipped bit, or a
// pre-frame legacy entry — is quarantined and reported as a miss, so
// corruption costs a re-computation, never a crash or a wrong result.
func (s *Store) readEntry(path string) ([]byte, bool) {
	payload, err := persist.ReadFramedFile(path)
	if err == nil {
		return payload, true
	}
	if errors.Is(err, persist.ErrCorrupt) {
		s.quarantine(path)
	}
	return nil, false
}

// writeEntry frames and atomically writes one disk entry, best-effort:
// write failures degrade to memory-only caching.
func (s *Store) writeEntry(path string, payload []byte) {
	if err := os.MkdirAll(s.st.dir, 0o755); err != nil {
		return
	}
	_ = persist.WriteFramedFile(path, payload)
}

// loadBlob returns the disk tier's blob for key; unreadable entries are
// misses (an empty blob is a valid entry, hence the ok bool) and
// corrupt entries are quarantined misses.
func (s *Store) loadBlob(key Key) ([]byte, bool) {
	if s.st.dir == "" {
		return nil, false
	}
	return s.readEntry(s.blobPath(key))
}

// saveBlob writes the blob as a framed entry, best-effort like saveDisk.
func (s *Store) saveBlob(key Key, v []byte) {
	if s.st.dir == "" {
		return
	}
	s.writeEntry(s.blobPath(key), v)
}

// DiscardBlob removes key from the blob tier: the memory entry is
// dropped and the disk entry quarantined. It is the caller-side half of
// the corruption contract — when a decoder rejects a blob the store's
// checksum accepted (a stale or truncated-by-an-old-writer payload),
// discarding it turns the next read into a clean miss instead of a
// repeating decode failure. No-op on a nil store.
func (s *Store) DiscardBlob(key Key) {
	if s == nil {
		return
	}
	st := s.st
	st.mu.Lock()
	if old, ok := st.blobMem[key]; ok {
		st.blobBytes -= int64(len(old))
		delete(st.blobMem, key)
		delete(st.blobLRU, key)
	}
	st.mu.Unlock()
	if st.dir == "" {
		return
	}
	path := s.blobPath(key)
	if _, err := os.Stat(path); err == nil {
		s.quarantine(path)
	}
}

func (s *Store) path(key Key) string { return filepath.Join(s.st.dir, key.Hex()+".json") }

// loadDisk returns the disk tier's entry for key, or nil. A missing
// file is a miss; an entry failing frame validation or JSON decode is
// quarantined and treated as a miss (the re-simulated result writes a
// fresh entry).
func (s *Store) loadDisk(key Key) *avf.Result {
	if s.st.dir == "" {
		return nil
	}
	path := s.path(key)
	payload, ok := s.readEntry(path)
	if !ok {
		return nil
	}
	r := &avf.Result{}
	if err := json.Unmarshal(payload, r); err != nil {
		// The frame validated but the payload does not decode — a
		// writer-side bug or an entry from a divergent build. Same
		// treatment: out of the live tier, miss, re-simulate.
		s.quarantine(path)
		return nil
	}
	return r
}

// saveDisk writes the entry atomically (temp file + rename, CRC-framed
// JSON payload), so concurrent processes sharing one cache directory
// never observe partial writes — and since entries are content-
// addressed, a lost race overwrites identical bytes. The disk tier is
// best-effort: write failures degrade to memory-only caching.
func (s *Store) saveDisk(key Key, r *avf.Result) {
	if s.st.dir == "" {
		return
	}
	payload, err := json.Marshal(r)
	if err != nil {
		return
	}
	s.writeEntry(s.path(key), payload)
}

// Stats is a snapshot of a set of traffic counters.
type Stats struct {
	// MemHits and DiskHits count requests served from each tier;
	// Simulated counts simulations actually executed; Deduped counts
	// callers that waited on an identical in-flight simulation.
	MemHits   int64 `json:"mem_hits"`
	DiskHits  int64 `json:"disk_hits"`
	Simulated int64 `json:"simulated"`
	Deduped   int64 `json:"deduped"`
	// Misses counts GetBlob probes that found neither tier populated;
	// Evicted counts blobs dropped from the memory tier by its LRU cap
	// (their disk entries survive).
	Misses  int64 `json:"misses,omitempty"`
	Evicted int64 `json:"evicted,omitempty"`
	// Quarantined counts disk entries that failed frame validation or
	// decode and were moved to the quarantine directory (each one costs
	// a re-computation, never a wrong result — DESIGN.md §11).
	Quarantined int64 `json:"quarantined,omitempty"`
	// BlobHits and BlobMisses are the blob-tier share of the hit and
	// miss traffic above (results vs. blobs attribution per handle).
	BlobHits   int64 `json:"blob_hits,omitempty"`
	BlobMisses int64 `json:"blob_misses,omitempty"`
}

// Hits is the total traffic served without running a simulation.
func (st Stats) Hits() int64 { return st.MemHits + st.DiskHits + st.Deduped }

// Stats returns the store-wide counters, covering traffic through every
// view (zero on a nil store).
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return s.st.glob.snapshot()
}

// LocalStats returns the traffic counted through this handle only
// (zero on a nil store). For the handle New returned that is its own
// direct traffic; for a View it is that view's.
func (s *Store) LocalStats() Stats {
	if s == nil {
		return Stats{}
	}
	return s.loc.snapshot()
}

// String renders the counters as the one-line "mem=… disk=… sim=… dedup=…"
// summary the CLIs print. The blob-probe, quarantine and
// blob-attribution fields are appended (the prefix is load-bearing:
// scripts anchor on the first four fields).
func (st Stats) String() string {
	return fmt.Sprintf("mem=%d disk=%d sim=%d dedup=%d miss=%d evict=%d quar=%d blob=%d/%d",
		st.MemHits, st.DiskHits, st.Simulated, st.Deduped, st.Misses, st.Evicted, st.Quarantined,
		st.BlobHits, st.BlobMisses)
}
