// Package simcache is a content-addressed memoisation engine for
// simulation results. Every simulation in this repository is a pure
// function of (engine version, microarchitecture configuration, program,
// run budget) — the determinism the paper's automated methodology relies
// on for reproducible stressmark search — so a result can be served from
// a cache keyed by a canonical fingerprint of those inputs and is
// bit-identical to re-running the simulator.
//
// One engine, Do, memoises every kind of value; a Codec names the
// kind's payload format. The store is two-tier:
//
//   - an in-memory map of decoded values, shared by every experiment and
//     GA search in the process (duplicate genomes across generations, the
//     33-workload suite shared by Figures 3/4/6/7, Table III, ...) and
//     LRU-bounded by encoded payload size;
//   - an optional on-disk tier (one CRC-framed file per key, written
//     atomically via internal/persist), shared across processes and
//     runs. Reads validate the frame and then decode: a torn, truncated,
//     bit-flipped or undecodable entry is quarantined to
//     <dir>/quarantine/ and served as a miss — corruption costs a
//     re-computation, never a crash and never a wrong result (DESIGN.md
//     §11).
//
// Concurrent requests for the same key are deduplicated (singleflight):
// the first caller computes, the rest wait and share the value.
//
// Keys incorporate EngineVersion, so entries written by an older
// simulator never match and stale disk tiers self-invalidate (DESIGN.md
// §7 gives the bump rules). Values handed out by the store are shared —
// callers must treat them as immutable, which every consumer in this
// repository already does.
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

// Codec is the payload format of one kind of memoised value: Encode and
// Decode convert between the value and its disk payload, and Ext is the
// disk entry's file extension. A key belongs to one codec — keys are
// built from parts that name the kind of value they address.
type Codec[T any] struct {
	Ext    string
	Encode func(T) ([]byte, error)
	Decode func([]byte) (T, error)
}

// Results is the codec of simulation results: JSON ".json" entries.
var Results = Codec[*avf.Result]{
	Ext:    ".json",
	Encode: func(r *avf.Result) ([]byte, error) { return json.Marshal(r) },
	Decode: func(b []byte) (*avf.Result, error) {
		r := &avf.Result{}
		if err := json.Unmarshal(b, r); err != nil {
			return nil, err
		}
		return r, nil
	},
}

// Options configures a Store.
type Options struct {
	// Dir enables the disk tier under this directory ("" = memory only).
	// Entries land in Dir/<version>/<key><ext> so stale engine versions
	// are inert and easy to sweep.
	Dir string
	// version overrides EngineVersion. It is unexported because every
	// store runs on EngineVersion; the in-package tests vary it to check
	// that a version change invalidates both tiers.
	version string
}

// memCapBytes bounds the memory tier by encoded payload size, so a
// long-lived daemon's accumulated entries cannot grow without limit.
// Past the cap, least-recently-used entries are evicted from memory —
// counted in Stats.Evicted — while their disk entries remain, so an
// eviction degrades a future hit from memory to disk (or, memory-only,
// to a re-computation), never to a wrong value.
const memCapBytes int64 = 1 << 30

// Store is a handle on the two-tier cache. The zero value is not
// usable; construct with New. A nil *Store is valid everywhere and
// disables caching (Do just runs the computation), so call sites need
// no branching.
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
	mem    map[Key]*entry
	flight map[Key]*call
	tick   int64 // LRU clock
	bytes  int64 // resident payload total
	cap    int64 // memCapBytes; tests lower it

	glob counters
}

// entry is one resident value, sized by its encoded payload.
type entry struct {
	val  any
	size int64
	tick int64 // last touch
}

// counter indexes one traffic counter.
type counter int

const (
	memHits counter = iota
	diskHits
	sims
	dedups
	evicted
	quarantined
	blobHits   // the .bin share of memHits+diskHits
	blobMisses // the .bin share of sims
	numCounters
)

// counters is one set of traffic counters.
type counters [numCounters]atomic.Int64

func (c *counters) snapshot() Stats {
	return Stats{
		MemHits:     c[memHits].Load(),
		DiskHits:    c[diskHits].Load(),
		Simulated:   c[sims].Load(),
		Deduped:     c[dedups].Load(),
		Evicted:     c[evicted].Load(),
		Quarantined: c[quarantined].Load(),
		BlobHits:    c[blobHits].Load(),
		BlobMisses:  c[blobMisses].Load(),
	}
}

// add counts one event store-wide and on this handle.
func (s *Store) add(c counter) {
	s.st.glob[c].Add(1)
	s.loc[c].Add(1)
}

// call is one in-flight computation other goroutines can wait on.
type call struct {
	done chan struct{}
	val  any
	size int64
	err  error
}

// errPanicked is what waiters on a computation that panicked receive.
var errPanicked = errors.New("simcache: the computation panicked")

// New returns an empty store. With a non-empty Dir the disk tier is
// created lazily on first write.
func New(opts Options) *Store {
	v := opts.version
	if v == "" {
		v = EngineVersion
	}
	st := &state{
		version: v,
		mem:     map[Key]*entry{},
		flight:  map[Key]*call{},
		cap:     memCapBytes,
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

// Do returns the memoised value for key, or runs compute, stores its
// value in both tiers (encoded by c) and returns it. Concurrent calls
// with the same key run compute once. Errors are returned to every
// waiter but never memoised. A compute that panics memoises nothing:
// its waiters get an error, the panic continues in the computing
// caller, and the next call on the key computes afresh. On a nil store,
// Do simply runs compute.
func Do[T any](s *Store, key Key, c Codec[T], compute func() (T, error)) (T, error) {
	if s == nil {
		return compute()
	}
	st := s.st
	blob := c.Ext == ".bin" // Stats.BlobHits/BlobMisses attribute these
	st.mu.Lock()
	if e, ok := st.mem[key]; ok {
		st.touch(e)
		st.mu.Unlock()
		s.add(memHits)
		if blob {
			s.add(blobHits)
		}
		return e.val.(T), nil
	}
	if cl, ok := st.flight[key]; ok {
		st.mu.Unlock()
		s.add(dedups)
		<-cl.done
		if cl.err != nil {
			var zero T
			return zero, cl.err
		}
		return cl.val.(T), nil
	}
	cl := &call{done: make(chan struct{}), err: errPanicked}
	st.flight[key] = cl
	st.mu.Unlock()
	// Land the call even if compute panics: its waiters then get
	// errPanicked, the error a call starts with, and the key stays
	// computable.
	defer func() {
		st.mu.Lock()
		delete(st.flight, key)
		if cl.err == nil {
			st.insert(key, cl.val, cl.size, s)
		}
		st.mu.Unlock()
		close(cl.done)
	}()

	v, size, ok := load(s, key, c)
	if ok {
		s.add(diskHits)
		if blob {
			s.add(blobHits)
		}
	} else {
		var err error
		v, err = compute()
		s.add(sims)
		if blob {
			s.add(blobMisses)
		}
		if err != nil {
			cl.err = err
			return v, err
		}
		size = save(s, key, c, v)
	}
	cl.val, cl.size, cl.err = v, size, nil
	return v, nil
}

// touch marks e most-recently-used. Caller holds mu.
func (st *state) touch(e *entry) {
	st.tick++
	e.tick = st.tick
}

// insert adds (or replaces) a resident value, then evicts
// least-recently-used entries until the memory tier fits the cap again.
// Evicted entries keep their disk copies, so the worst case of an
// eviction is a future disk hit. Caller holds mu.
func (st *state) insert(key Key, v any, size int64, s *Store) {
	if old, ok := st.mem[key]; ok {
		st.bytes -= old.size
	}
	e := &entry{val: v, size: size}
	st.mem[key] = e
	st.bytes += size
	st.touch(e)
	for st.bytes > st.cap && len(st.mem) > 1 {
		var victim Key
		best := st.tick + 1
		for k, o := range st.mem {
			if o.tick < best {
				best, victim = o.tick, k
			}
		}
		if victim == key {
			break // never evict the entry being inserted
		}
		st.bytes -= st.mem[victim].size
		delete(st.mem, victim)
		s.add(evicted)
	}
}

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
	s.add(quarantined)
}

func (s *Store) path(key Key, ext string) string { return filepath.Join(s.st.dir, key.Hex()+ext) }

// load returns the disk tier's value for key and its payload size. A
// missing (or unreadable) file is a plain miss; an entry that fails
// frame validation — torn write, truncation, any flipped bit, or a
// pre-frame legacy entry — or whose payload the codec rejects (a
// writer-side bug, an entry from a divergent build or an older payload
// version) is quarantined and reported as a miss, so corruption costs a
// re-computation, never a crash or a wrong value.
func load[T any](s *Store, key Key, c Codec[T]) (T, int64, bool) {
	var zero T
	if s.st.dir == "" {
		return zero, 0, false
	}
	path := s.path(key, c.Ext)
	payload, err := persist.ReadFramedFile(path)
	if err != nil {
		if errors.Is(err, persist.ErrCorrupt) {
			s.quarantine(path)
		}
		return zero, 0, false
	}
	v, err := c.Decode(payload)
	if err != nil {
		s.quarantine(path)
		return zero, 0, false
	}
	return v, int64(len(payload)), true
}

// save encodes v and, with a disk tier, writes it atomically (temp
// file + rename, CRC-framed payload), so concurrent processes sharing
// one cache directory never observe partial writes — and since entries
// are content-addressed, a lost race overwrites identical bytes. It
// returns the payload size the memory tier charges. The disk tier is
// best-effort: encode or write failures degrade to memory-only caching.
func save[T any](s *Store, key Key, c Codec[T], v T) int64 {
	payload, err := c.Encode(v)
	if err != nil {
		return 0
	}
	if s.st.dir != "" && os.MkdirAll(s.st.dir, 0o755) == nil {
		_ = persist.WriteFramedFile(s.path(key, c.Ext), payload)
	}
	return int64(len(payload))
}

// Stats is a snapshot of a set of traffic counters.
type Stats struct {
	// MemHits and DiskHits count requests served from each tier;
	// Simulated counts computations actually executed; Deduped counts
	// callers that waited on an identical in-flight computation.
	MemHits   int64 `json:"mem_hits"`
	DiskHits  int64 `json:"disk_hits"`
	Simulated int64 `json:"simulated"`
	Deduped   int64 `json:"deduped"`
	// Evicted counts entries dropped from the memory tier by its LRU
	// cap (their disk entries survive).
	Evicted int64 `json:"evicted,omitempty"`
	// Quarantined counts disk entries that failed frame validation or
	// decode and were moved to the quarantine directory (each one costs
	// a re-computation, never a wrong result — DESIGN.md §11).
	Quarantined int64 `json:"quarantined,omitempty"`
	// BlobHits and BlobMisses are the ".bin" entries' share of the hits
	// (MemHits+DiskHits) and of the computations (Simulated): binary
	// entries vs. results attribution per handle.
	BlobHits   int64 `json:"blob_hits,omitempty"`
	BlobMisses int64 `json:"blob_misses,omitempty"`
}

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
// summary the CLIs print. The eviction, quarantine and
// blob-attribution fields are appended (the prefix is load-bearing:
// scripts anchor on the first four fields).
func (st Stats) String() string {
	return fmt.Sprintf("mem=%d disk=%d sim=%d dedup=%d evict=%d quar=%d blob=%d/%d",
		st.MemHits, st.DiskHits, st.Simulated, st.Deduped, st.Evicted, st.Quarantined,
		st.BlobHits, st.BlobMisses)
}
