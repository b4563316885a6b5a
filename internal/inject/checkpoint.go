package inject

// Golden-run plumbing for the campaign engine: the cache codec of the
// golden run (its result plus its replay facts, GoldenInfo, in one
// entry), and the checkpoint source slice jobs fork from. Checkpoints
// are pure replay accelerators held in memory only — re-running the
// capturing golden run costs less than encoding, storing and decoding
// them — so no cache key names them and they never reach the report.

import (
	"encoding/binary"
	"fmt"
	"sync"

	"avfstress/internal/avf"
	"avfstress/internal/pipe"
	"avfstress/internal/simcache"
)

// golden is a campaign's memoised golden run: the fault-free result and
// its replay facts.
type golden struct {
	res  *avf.Result
	info pipe.GoldenInfo
}

// goldenCodec stores a golden run as its encodeGoldenInfo blob followed
// by the result's JSON.
var goldenCodec = simcache.Codec[golden]{
	Ext: ".bin",
	Encode: func(g golden) ([]byte, error) {
		res, err := simcache.Results.Encode(g.res)
		if err != nil {
			return nil, err
		}
		return append(encodeGoldenInfo(g.info), res...), nil
	},
	Decode: func(b []byte) (golden, error) {
		info, res, err := decodeGoldenInfo(b)
		if err != nil {
			return golden{}, err
		}
		r, err := simcache.Results.Decode(res)
		if err != nil {
			return golden{}, fmt.Errorf("inject: golden entry result: %w", err)
		}
		return golden{r, info}, nil
	},
}

// goldenKeyPart names the golden entry in a campaign's cache key. It
// names the binary format too, so entries in an older format are never
// read.
const goldenKeyPart = "golden:bin1"

// Golden-info codec, the head of the golden entry: a magic, the
// little-endian WindowStart, Cycles and Digest, a uint32 count of
// register-file dead intervals, then per interval a fixed-width record —
// Slot (int16), Start, End. The intervals are always encoded, whatever
// PruneStatic says, so warm and cold campaigns prune identically.
const (
	goldenMagic  = "injgld1\x00"
	goldenHeader = len(goldenMagic) + 8 + 8 + 8 + 4
	goldenRecord = 2 + 8 + 8
)

// encodeGoldenInfo renders the golden run's replay facts as a blob.
func encodeGoldenInfo(gi pipe.GoldenInfo) []byte {
	b := make([]byte, 0, goldenHeader+goldenRecord*len(gi.RFDead))
	b = append(b, goldenMagic...)
	b = binary.LittleEndian.AppendUint64(b, uint64(gi.WindowStart))
	b = binary.LittleEndian.AppendUint64(b, uint64(gi.Cycles))
	b = binary.LittleEndian.AppendUint64(b, gi.Digest)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(gi.RFDead)))
	for _, iv := range gi.RFDead {
		b = binary.LittleEndian.AppendUint16(b, uint16(iv.Slot))
		b = binary.LittleEndian.AppendUint64(b, uint64(iv.Start))
		b = binary.LittleEndian.AppendUint64(b, uint64(iv.End))
	}
	return b
}

// decodeGoldenInfo parses the encodeGoldenInfo blob at the head of b and
// returns it with the bytes after it. The interval count is checked
// against the length before the interval list is allocated; a wrong
// magic, a short blob or a negative register slot is undecodable (the
// store quarantines and recomputes the entry).
func decodeGoldenInfo(b []byte) (pipe.GoldenInfo, []byte, error) {
	if len(b) < goldenHeader || string(b[:len(goldenMagic)]) != goldenMagic {
		return pipe.GoldenInfo{}, nil, fmt.Errorf("inject: not a golden-info blob (%d bytes)", len(b))
	}
	h := b[len(goldenMagic):]
	gi := pipe.GoldenInfo{
		WindowStart: int64(binary.LittleEndian.Uint64(h)),
		Cycles:      int64(binary.LittleEndian.Uint64(h[8:])),
		Digest:      binary.LittleEndian.Uint64(h[16:]),
	}
	count := int64(binary.LittleEndian.Uint32(h[24:]))
	end := int64(goldenHeader) + goldenRecord*count
	if end > int64(len(b)) {
		return pipe.GoldenInfo{}, nil, fmt.Errorf("inject: golden-info blob is %d bytes, too short for %d intervals", len(b), count)
	}
	if count > 0 {
		gi.RFDead = make([]pipe.RFDeadInterval, count)
	}
	for i := range gi.RFDead {
		r := b[goldenHeader+goldenRecord*i:]
		slot := int16(binary.LittleEndian.Uint16(r))
		if slot < 0 {
			return pipe.GoldenInfo{}, nil, fmt.Errorf("inject: golden-info register slot %d out of range", slot)
		}
		gi.RFDead[i] = pipe.RFDeadInterval{
			Slot:  slot,
			Start: int64(binary.LittleEndian.Uint64(r[2:])),
			End:   int64(binary.LittleEndian.Uint64(r[10:])),
		}
	}
	return gi, b[end:], nil
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
	_, gi, set, err := cs.c.pool.SimulateGoldenRecorded(o.Program, o.Run, o.checkpointInterval, nil)
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
