package inject

import (
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

// TestDecodeGoldenInfoRejectsMalformed pins two inputs that earlier
// decoders mishandled: an interval count whose 3n overflows int64 (it
// wrapped to 2 and indexed past the values) and a register slot past
// int16 (it was silently wrapped). Both must fail decode, as must the
// other count and slot violations.
func TestDecodeGoldenInfoRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"goldeninfo v2 0 0 0 6148914691236517206 1 2",
		"goldeninfo v2 0 0 0 1 70000 2 3",
		"goldeninfo v2 0 0 0 1 -1 2 3",
		"goldeninfo v2 0 0 0 1 32768 2 3",
		"goldeninfo v2 0 0 0 -1",
		"goldeninfo v2 0 0 0 1 1 2",
		"goldeninfo v2 0 0 0 0 1",
		"goldeninfo v1 0 0 0 0",
		"goldeninfo v2 0 0 0",
	} {
		if gi, err := decodeGoldenInfo([]byte(in)); err == nil {
			t.Errorf("decode(%q) accepted %+v", in, gi)
		}
	}
	gi, err := decodeGoldenInfo([]byte("goldeninfo v2 0 0 0 1 32767 2 3"))
	if err != nil || len(gi.RFDead) != 1 || gi.RFDead[0].Slot != 32767 {
		t.Errorf("largest slot: %+v, %v", gi, err)
	}
}

// TestGoldenInfoRoundTrip: encode→decode is the identity, with and
// without recorded dead intervals.
func TestGoldenInfoRoundTrip(t *testing.T) {
	for _, gi := range []pipe.GoldenInfo{{}, sampleGoldenInfo()} {
		got, err := decodeGoldenInfo(encodeGoldenInfo(gi))
		if err != nil || !reflect.DeepEqual(got, gi) {
			t.Errorf("round trip of %+v: %+v, %v", gi, got, err)
		}
	}
}

// FuzzDecodeGoldenInfo: the decoder never panics, and any value it
// accepts survives encode→decode unchanged.
func FuzzDecodeGoldenInfo(f *testing.F) {
	f.Add(encodeGoldenInfo(pipe.GoldenInfo{}))
	f.Add(encodeGoldenInfo(sampleGoldenInfo()))
	f.Add([]byte("goldeninfo v2 0 0 0 6148914691236517206 1 2"))
	f.Add([]byte("goldeninfo v2 0 0 0 1 70000 2 3"))
	f.Fuzz(func(t *testing.T, b []byte) {
		gi, err := decodeGoldenInfo(b)
		if err != nil {
			return
		}
		got, err := decodeGoldenInfo(encodeGoldenInfo(gi))
		if err != nil {
			t.Fatalf("re-encoding of accepted %+v fails decode: %v", gi, err)
		}
		if !reflect.DeepEqual(got, gi) {
			t.Fatalf("round trip changed %+v into %+v", gi, got)
		}
	})
}

// TestDecodeGoldenInfoWhitespace: the scanner splits on any run of
// ASCII whitespace, leading and trailing included, like the encoder's
// single spaces; other bytes stay part of a token.
func TestDecodeGoldenInfoWhitespace(t *testing.T) {
	want, err := decodeGoldenInfo([]byte("goldeninfo v2 7400 12345 99 1 3 7500 -1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{
		"goldeninfo\tv2\t7400\t12345\t99\t1\t3\t7500\t-1",
		"goldeninfo   v2 7400  12345\v\f99 1 3 7500     -1",
		"  \n goldeninfo v2 7400 12345 99 1 3 7500 -1 \r\n\t",
	} {
		if got, err := decodeGoldenInfo([]byte(in)); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("decode(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	if gi, err := decodeGoldenInfo([]byte("goldeninfo v2 7400 12345 99 0 ")); err == nil {
		t.Errorf("non-ASCII space accepted as a separator: %+v", gi)
	}
}

// FuzzDecodeGolden: the golden entry decoder never panics, and any
// entry it accepts re-encodes to one that decodes to an equal golden
// run. The committed corpus under testdata/fuzz adds entries without
// an info line, with a v1 line and with a truncated result.
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
