package inject

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"avfstress/internal/avf"
	"avfstress/internal/pipe"
)

func sampleGoldenInfo() pipe.GoldenInfo {
	return pipe.GoldenInfo{WindowStart: 7_400, Cycles: 12_345, Digest: 1<<63 + 5, RFDead: []pipe.RFDeadInterval{
		{Slot: 0, Start: 7_500, End: 7_520},
		{Slot: 79, Start: 9_000, End: -1},
	}}
}

// goldenInfoBlob builds a golden-info blob by hand: a zero window and
// digest, the given interval count, then the raw record bytes.
func goldenInfoBlob(count uint32, records ...byte) []byte {
	b := encodeGoldenInfo(pipe.GoldenInfo{})
	binary.LittleEndian.PutUint32(b[goldenHeader-4:], count)
	return append(b, records...)
}

// goldenRecordBytes encodes one interval record with a raw slot field.
func goldenRecordBytes(slot uint16, start, end int64) []byte {
	r := binary.LittleEndian.AppendUint16(nil, slot)
	r = binary.LittleEndian.AppendUint64(r, uint64(start))
	return binary.LittleEndian.AppendUint64(r, uint64(end))
}

// TestDecodeGoldenInfoRejectsMalformed: a count the blob is too short
// for (the largest count included: it must fail before anything is
// allocated), a negative register slot, a truncated header or record, a
// wrong magic and a legacy text line all fail decode.
func TestDecodeGoldenInfoRejectsMalformed(t *testing.T) {
	rec := goldenRecordBytes(3, 7_500, -1)
	for name, in := range map[string][]byte{
		"count overflow":     goldenInfoBlob(math.MaxUint32, rec...),
		"count past records": goldenInfoBlob(2, rec...),
		"negative slot":      goldenInfoBlob(1, goldenRecordBytes(0xffff, 2, 3)...),
		"slot past int16":    goldenInfoBlob(1, goldenRecordBytes(0x8000, 2, 3)...),
		"truncated record":   goldenInfoBlob(1, rec[:goldenRecord-1]...),
		"truncated header":   encodeGoldenInfo(pipe.GoldenInfo{})[:goldenHeader-1],
		"wrong magic":        append([]byte("injgld0\x00"), encodeGoldenInfo(pipe.GoldenInfo{})[len(goldenMagic):]...),
		"legacy text":        []byte("goldeninfo v2 7400 12345 99 1 3 7500 -1"),
		"empty":              nil,
	} {
		if gi, _, err := decodeGoldenInfo(in); err == nil {
			t.Errorf("%s: decode accepted %+v", name, gi)
		}
	}
	gi, rest, err := decodeGoldenInfo(goldenInfoBlob(1, goldenRecordBytes(math.MaxInt16, 2, 3)...))
	if err != nil || len(rest) != 0 || len(gi.RFDead) != 1 || gi.RFDead[0].Slot != math.MaxInt16 {
		t.Errorf("largest slot: %+v, %d trailing bytes, %v", gi, len(rest), err)
	}
}

// TestGoldenInfoRoundTrip: encode→decode is the identity, with and
// without recorded dead intervals, and hands back the bytes after the
// blob untouched.
func TestGoldenInfoRoundTrip(t *testing.T) {
	for _, gi := range []pipe.GoldenInfo{{}, sampleGoldenInfo()} {
		got, rest, err := decodeGoldenInfo(append(encodeGoldenInfo(gi), "{}"...))
		if err != nil || !reflect.DeepEqual(got, gi) || string(rest) != "{}" {
			t.Errorf("round trip of %+v: %+v, rest %q, %v", gi, got, rest, err)
		}
	}
}

// FuzzDecodeGoldenInfo: the decoder never panics, and any value it
// accepts survives encode→decode unchanged. The committed corpus under
// testdata/fuzz adds malformed blobs and legacy text lines.
func FuzzDecodeGoldenInfo(f *testing.F) {
	f.Add(encodeGoldenInfo(pipe.GoldenInfo{}))
	f.Add(encodeGoldenInfo(sampleGoldenInfo()))
	f.Add(goldenInfoBlob(math.MaxUint32, goldenRecordBytes(3, 7_500, -1)...))
	f.Add(goldenInfoBlob(1, goldenRecordBytes(0x8000, 2, 3)...))
	f.Fuzz(func(t *testing.T, b []byte) {
		gi, _, err := decodeGoldenInfo(b)
		if err != nil {
			return
		}
		got, rest, err := decodeGoldenInfo(encodeGoldenInfo(gi))
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoding of accepted %+v fails decode: %v (%d trailing bytes)", gi, err, len(rest))
		}
		if !reflect.DeepEqual(got, gi) {
			t.Fatalf("round trip changed %+v into %+v", gi, got)
		}
	})
}

// FuzzDecodeGolden: the golden entry decoder never panics, and any
// entry it accepts re-encodes to one that decodes to an equal golden
// run. The committed corpus under testdata/fuzz adds entries with a bad
// info blob, a null and a truncated result, and legacy text entries.
func FuzzDecodeGolden(f *testing.F) {
	for _, g := range []golden{
		{res: &avf.Result{}},
		{res: &avf.Result{Config: "baseline", Workload: "stressmark", Cycles: 12_345, Instructions: 9_000, IPC: 0.73}, info: sampleGoldenInfo()},
	} {
		b, err := goldenCodec.Encode(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		g, err := goldenCodec.Decode(b)
		if err != nil {
			return
		}
		enc, err := goldenCodec.Encode(g)
		if err != nil {
			t.Fatalf("accepted %+v does not re-encode: %v", g, err)
		}
		got, err := goldenCodec.Decode(enc)
		if err != nil {
			t.Fatalf("re-encoding of accepted %+v fails decode: %v", g, err)
		}
		if !reflect.DeepEqual(got, g) {
			t.Fatalf("round trip changed %+v into %+v", g, got)
		}
	})
}
