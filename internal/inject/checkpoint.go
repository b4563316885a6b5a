package inject

// Checkpoint plumbing for the campaign engine: persistence of the
// golden run's replay facts (GoldenInfo), the checkpoint manifest
// (capture cycles + validity lead) and the per-index checkpoint blobs
// in the simcache blob tier, plus the lazy checkpoint source slice jobs
// fork from. Checkpoints are pure replay accelerators: every code path
// here degrades to a from-cycle-zero replay on any miss or decode
// failure, never to a wrong outcome — which is why none of these keys
// participate in slice addressing or in the report.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"avfstress/internal/pipe"
	"avfstress/internal/simcache"
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

func decodeGoldenInfo(b []byte) (pipe.GoldenInfo, error) {
	vals, err := parseInts(b, "goldeninfo v2", 4)
	if err != nil {
		return pipe.GoldenInfo{}, err
	}
	gi := pipe.GoldenInfo{WindowStart: vals[0], Cycles: vals[1], Digest: uint64(vals[2])}
	// The count is checked by division: 3*n overflows for huge n.
	n, rest := vals[3], vals[4:]
	if n < 0 || n != int64(len(rest)/3) || len(rest)%3 != 0 {
		return pipe.GoldenInfo{}, fmt.Errorf("inject: golden-info interval count mismatch")
	}
	for i := 0; i < len(rest); i += 3 {
		slot := rest[i]
		if slot < 0 || slot > math.MaxInt16 {
			return pipe.GoldenInfo{}, fmt.Errorf("inject: golden-info register slot %d out of range", slot)
		}
		gi.RFDead = append(gi.RFDead, pipe.RFDeadInterval{Slot: int16(slot), Start: rest[i+1], End: rest[i+2]})
	}
	return gi, nil
}

// encodeManifest records a set's capture cycles and validity lead:
// enough to pick fork points without loading any checkpoint.
func encodeManifest(interval, lead int64, cycles []int64) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "ckptmanifest v1 %d %d %d", interval, lead, len(cycles))
	for _, c := range cycles {
		fmt.Fprintf(&b, " %d", c)
	}
	return []byte(b.String())
}

// decodeManifest parses a manifest, rejecting a negative lead or capture
// cycles that are not strictly increasing (NearestCheckpoint's
// precondition).
func decodeManifest(b []byte) (cycles []int64, lead int64, err error) {
	vals, err := parseInts(b, "ckptmanifest v1", 3)
	if err != nil {
		return nil, 0, err
	}
	if n := vals[2]; n < 0 || int64(len(vals)-3) != n {
		return nil, 0, fmt.Errorf("inject: checkpoint manifest count mismatch")
	}
	cycles, lead = vals[3:], vals[1]
	if lead < 0 {
		return nil, 0, fmt.Errorf("inject: checkpoint manifest lead %d negative", lead)
	}
	for i := 1; i < len(cycles); i++ {
		if cycles[i] <= cycles[i-1] {
			return nil, 0, fmt.Errorf("inject: checkpoint manifest cycles not increasing")
		}
	}
	return cycles, lead, nil
}

// parseInts splits a "<name> <version> <int>..." text blob into at
// least min integers. Values past int64 (the unsigned golden digest)
// parse as uint64 and wrap.
func parseInts(b []byte, header string, min int) ([]int64, error) {
	fields := strings.Fields(string(b))
	if len(fields) < 2+min || fields[0]+" "+fields[1] != header {
		return nil, fmt.Errorf("inject: bad %s blob", header)
	}
	vals := make([]int64, len(fields)-2)
	for i, f := range fields[2:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			u, uerr := strconv.ParseUint(f, 10, 64)
			if uerr != nil {
				return nil, fmt.Errorf("inject: bad %s blob: %w", header, err)
			}
			v = int64(u)
		}
		vals[i] = v
	}
	return vals, nil
}

// ckptKey addresses the checkpoint manifest of the campaign's interval
// (i < 0) or one of its checkpoints: a different interval is a
// different set, not a different answer.
func (c *campaign) ckptKey(i int) simcache.Key {
	if i < 0 {
		return c.key(fmt.Sprintf("ckpts:%d", c.o.CheckpointInterval))
	}
	return c.key(fmt.Sprintf("ckpts:%d:%d", c.o.CheckpointInterval, i))
}

// publishCheckpoints pushes a freshly captured checkpoint set to the
// blob tier: the manifest plus one blob per checkpoint.
func (c *campaign) publishCheckpoints(set *pipe.CheckpointSet) {
	if set == nil || c.o.Cache == nil {
		return
	}
	c.o.Cache.PutBlob(c.ckptKey(-1), encodeManifest(set.Interval, set.Lead, set.Cycles()))
	for i, ck := range set.Checkpoints {
		if b, err := ck.MarshalBinary(); err == nil {
			c.o.Cache.PutBlob(c.ckptKey(i), b)
		}
	}
}

// ckptSource hands slice replays their fork points: the fresh golden
// run's in-memory set when this process just captured it, otherwise
// the manifest's from the blob tier, each checkpoint decoded at most
// once and shared across slices. Loads of different checkpoints run in
// parallel; only slices wanting the same one wait for its decode. A
// missing or corrupt entry yields nil and the slice replays from cycle
// zero — slower, never wrong.
type ckptSource struct {
	c      *campaign
	cycles []int64
	lead   int64
	set    *pipe.CheckpointSet // fresh in-memory set, or nil

	mu    sync.Mutex
	loads map[int]*ckptLoad
}

// ckptLoad is one checkpoint's lazy load from the blob tier.
type ckptLoad struct {
	once sync.Once
	ck   *pipe.Checkpoint // nil = failed to load
}

func (c *campaign) ckptSource(set *pipe.CheckpointSet) *ckptSource {
	src := &ckptSource{c: c, set: set, loads: map[int]*ckptLoad{}}
	if set != nil {
		src.cycles, src.lead = set.Cycles(), set.Lead
		return src
	}
	key := c.ckptKey(-1)
	if b, ok := c.o.Cache.GetBlob(key); ok {
		var err error
		if src.cycles, src.lead, err = decodeManifest(b); err != nil {
			c.o.Cache.DiscardBlob(key)
		}
	}
	return src
}

// checkpointFor returns the latest checkpoint valid for a fault at the
// given cycle, or nil for a replay from cycle zero. Safe on a nil
// source (checkpointing disabled).
func (cs *ckptSource) checkpointFor(cycle int64) *pipe.Checkpoint {
	if cs == nil {
		return nil
	}
	i := pipe.NearestCheckpoint(cs.cycles, cs.lead, cycle)
	if i < 0 {
		return nil
	}
	if cs.set != nil {
		return cs.set.Checkpoints[i]
	}
	cs.mu.Lock()
	l := cs.loads[i]
	if l == nil {
		l = &ckptLoad{}
		cs.loads[i] = l
	}
	cs.mu.Unlock()
	l.once.Do(func() {
		if b, found := cs.c.o.Cache.GetBlob(cs.c.ckptKey(i)); found {
			l.ck, _ = pipe.UnmarshalCheckpoint(b, cs.c.o.Program)
		}
	})
	return l.ck
}
