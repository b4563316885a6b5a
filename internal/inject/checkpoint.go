package inject

// Golden-run plumbing for the campaign engine: persistence of the
// golden run's replay facts (GoldenInfo) in the simcache blob tier, and
// the checkpoint source slice jobs fork from. Checkpoints are pure
// replay accelerators held in memory only — re-running the capturing
// golden run costs less than encoding, storing and decoding them — so
// no cache key names them and they never reach the report.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"avfstress/internal/pipe"
)

// encodeGoldenInfo serialises the golden run's replay facts as a small
// versioned text blob, so warm campaigns skip the golden re-run. v2
// appends the register-file dead intervals the pruner needs (v1 blobs
// fail decode: discard and rebuild); they are always encoded, whatever
// PruneStatic says, so warm and cold campaigns prune identically.
func encodeGoldenInfo(gi pipe.GoldenInfo) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "goldeninfo v2 %d %d %d %d", gi.WindowStart, gi.Cycles, gi.Digest, len(gi.RFDead))
	for _, iv := range gi.RFDead {
		fmt.Fprintf(&b, " %d %d %d", iv.Slot, iv.Start, iv.End)
	}
	return []byte(b.String())
}

// decodeGoldenInfo parses an encodeGoldenInfo blob in place: one pass
// counts its fields, so the interval count is checked and the interval
// list sized before anything is allocated, and a second parses them.
func decodeGoldenInfo(b []byte) (pipe.GoldenInfo, error) {
	n := 0
	for tok, rest := nextField(b); tok != nil; tok, rest = nextField(rest) {
		n++
	}
	name, rest := nextField(b)
	ver, rest := nextField(rest)
	if n < 6 || string(name) != "goldeninfo" || string(ver) != "v2" {
		return pipe.GoldenInfo{}, fmt.Errorf("inject: bad goldeninfo v2 blob")
	}
	sc := intScanner{rest: rest}
	gi := pipe.GoldenInfo{WindowStart: sc.next(), Cycles: sc.next(), Digest: uint64(sc.next())}
	// The count is checked by division: 3*count overflows for huge
	// counts.
	count, fields := sc.next(), n-6
	if sc.err == nil && (count < 0 || count != int64(fields/3) || fields%3 != 0) {
		return pipe.GoldenInfo{}, fmt.Errorf("inject: golden-info interval count mismatch")
	}
	if count > 0 {
		gi.RFDead = make([]pipe.RFDeadInterval, count)
	}
	for i := range gi.RFDead {
		slot, start, end := sc.next(), sc.next(), sc.next()
		if slot < 0 || slot > math.MaxInt16 {
			return pipe.GoldenInfo{}, fmt.Errorf("inject: golden-info register slot %d out of range", slot)
		}
		gi.RFDead[i] = pipe.RFDeadInterval{Slot: int16(slot), Start: start, End: end}
	}
	if sc.err != nil {
		return pipe.GoldenInfo{}, sc.err
	}
	return gi, nil
}

// intScanner reads whitespace-separated decimal integers from a text
// blob without copying it. Values past int64 (the unsigned golden
// digest) parse as uint64 and wrap. The first bad token sticks in err,
// and every later read returns zero.
type intScanner struct {
	rest []byte
	err  error
}

func (sc *intScanner) next() int64 {
	tok, rest := nextField(sc.rest)
	sc.rest = rest
	if sc.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		u, uerr := strconv.ParseUint(string(tok), 10, 64)
		if uerr != nil {
			sc.err = fmt.Errorf("inject: bad goldeninfo v2 blob: %w", err)
			return 0
		}
		v = int64(u)
	}
	return v
}

// nextField returns b's first whitespace-separated token (nil when none
// is left) and the bytes after it.
func nextField(b []byte) (tok, rest []byte) {
	i := 0
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	if i == len(b) {
		return nil, nil
	}
	j := i + 1
	for j < len(b) && !isSpace(b[j]) {
		j++
	}
	return b[i:j], b[j:]
}

func isSpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}

// ckptSource hands slice replays their fork points. A campaign whose
// golden run just ran forks from the set that run captured. One whose
// golden result and info came warm from the cache re-runs the capturing
// golden run in memory, once, when the first slice misses its outcome
// table — so an all-warm campaign still simulates nothing. The re-run
// must reproduce the cached info the sampler and slice grid were built
// from; on a mismatch every slice fails rather than replay against a
// golden run that disagrees with it.
type ckptSource struct {
	c    *campaign
	want pipe.GoldenInfo

	once   sync.Once
	set    *pipe.CheckpointSet
	cycles []int64
	err    error
}

// ckptSource returns the campaign's checkpoint source: set when the
// golden run just captured one, otherwise a lazy re-capture guarded by
// info.
func (c *campaign) ckptSource(info pipe.GoldenInfo, set *pipe.CheckpointSet) *ckptSource {
	cs := &ckptSource{c: c, want: info}
	if set != nil {
		cs.once.Do(func() { cs.set, cs.cycles = set, set.Cycles() })
	}
	return cs
}

// recapture re-runs the capturing golden run and checks it against the
// cached golden info.
func (cs *ckptSource) recapture() {
	o := cs.c.o
	_, gi, set, err := cs.c.pool.SimulateGoldenRecorded(o.Program, o.Run, o.CheckpointInterval, nil)
	w := cs.want
	switch {
	case err != nil:
		cs.err = fmt.Errorf("inject: golden re-capture: %w", err)
	case gi.WindowStart != w.WindowStart || gi.Cycles != w.Cycles || gi.Digest != w.Digest:
		cs.err = fmt.Errorf("inject: re-captured golden run (window %d+%d, digest %016x) disagrees with cached golden info (window %d+%d, digest %016x)",
			gi.WindowStart, gi.Cycles, gi.Digest, w.WindowStart, w.Cycles, w.Digest)
	default:
		cs.set, cs.cycles = set, set.Cycles()
	}
}

// checkpointFor returns the latest checkpoint valid for a fault at the
// given cycle, or nil for a replay from cycle zero. Safe on a nil
// source (checkpointing disabled).
func (cs *ckptSource) checkpointFor(cycle int64) (*pipe.Checkpoint, error) {
	if cs == nil {
		return nil, nil
	}
	cs.once.Do(cs.recapture)
	if cs.err != nil {
		return nil, cs.err
	}
	if i := pipe.NearestCheckpoint(cs.cycles, cs.set.Lead, cycle); i >= 0 {
		return cs.set.Checkpoints[i], nil
	}
	return nil, nil
}
