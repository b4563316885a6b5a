package inject

// Outcome tables, the unit of outcome memoisation (DESIGN.md §10): a
// campaign's one replay persists its trial records as one binary table
// keyed by the campaign's fault set.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"avfstress/internal/isa"
	"avfstress/internal/pipe"
	"avfstress/internal/simcache"
)

// faultSetHash content-addresses a fault list for its outcome table:
// SHA-256 over each (structure, bit, cycle) in binary.
func faultSetHash(faults []pipe.Fault) string {
	buf := make([]byte, 0, 18*len(faults))
	for _, f := range faults {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(f.Structure))
		buf = binary.LittleEndian.AppendUint64(buf, f.Bit)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Cycle))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// Outcome-table codec: a magic, a little-endian uint32 record count,
// then per fault in table order a fixed-width record — flags (bit 0 =
// corrupted), Diverge.Seq, PC, Op, SrcSlot. The replay digest is not
// stored (campaign replays run in outcome mode, where it is zero).
const (
	sliceMagic  = "injslc1\x00"
	sliceHeader = len(sliceMagic) + 4
	sliceRecord = 19
)

// encodeSlice renders trial records as an outcome-table blob.
func encodeSlice(trials []pipe.FaultTrial) []byte {
	b := make([]byte, 0, sliceHeader+sliceRecord*len(trials))
	b = append(b, sliceMagic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(trials)))
	for _, t := range trials {
		var flags byte
		if t.Corrupted {
			flags = 1
		}
		b = append(b, flags)
		b = binary.LittleEndian.AppendUint64(b, uint64(t.Diverge.Seq))
		b = binary.LittleEndian.AppendUint64(b, t.Diverge.PC)
		b = append(b, byte(t.Diverge.Op), byte(t.Diverge.SrcSlot))
	}
	return b
}

// sliceCodec is the cache codec of an outcome table of n records, n
// being its fault count.
func sliceCodec(n int) simcache.Codec[[]pipe.FaultTrial] {
	return simcache.Codec[[]pipe.FaultTrial]{
		Ext:    ".bin",
		Encode: func(t []pipe.FaultTrial) ([]byte, error) { return encodeSlice(t), nil },
		Decode: func(b []byte) ([]pipe.FaultTrial, error) { return decodeSlice(b, n) },
	}
}

// decodeSlice parses an outcome-table blob of exactly n records, strictly: a
// wrong magic, count or length, or a field out of range is undecodable
// (the store quarantines and replays it). Legacy per-trial blobs never decode.
func decodeSlice(b []byte, n int) ([]pipe.FaultTrial, error) {
	if len(b) < sliceHeader || string(b[:len(sliceMagic)]) != sliceMagic {
		return nil, fmt.Errorf("inject: not a slice blob (%d bytes)", len(b))
	}
	if got := binary.LittleEndian.Uint32(b[len(sliceMagic):]); int64(got) != int64(n) {
		return nil, fmt.Errorf("inject: slice blob holds %d records, want %d", got, n)
	}
	if len(b) != sliceHeader+sliceRecord*n {
		return nil, fmt.Errorf("inject: slice blob is %d bytes, want %d", len(b), sliceHeader+sliceRecord*n)
	}
	trials := make([]pipe.FaultTrial, n)
	for i := range trials {
		r := b[sliceHeader+sliceRecord*i:]
		seq := int64(binary.LittleEndian.Uint64(r[1:]))
		op, slot := isa.Op(r[17]), int8(r[18])
		if r[0] > 1 || seq < -1 || op > isa.OpBranch || slot < -1 {
			return nil, fmt.Errorf("inject: slice blob record %d out of range", i)
		}
		trials[i] = pipe.FaultTrial{Corrupted: r[0] == 1, Diverge: pipe.Diverge{
			Seq: seq, PC: binary.LittleEndian.Uint64(r[9:]), Op: op, SrcSlot: slot,
		}}
	}
	return trials, nil
}
