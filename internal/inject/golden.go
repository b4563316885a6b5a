package inject

// The cache codec of a campaign's golden run: its result plus its
// replay facts, GoldenInfo, in one entry.

import (
	"encoding/binary"
	"fmt"

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
