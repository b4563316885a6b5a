package inject

import (
	"reflect"
	"testing"

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

// TestManifestRejectsMalformed: count mismatches, a negative lead and
// capture cycles out of order all fail decode.
func TestManifestRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"ckptmanifest v1 512 40 2 100",
		"ckptmanifest v1 512 40 1 100 200",
		"ckptmanifest v1 512 40 -1",
		"ckptmanifest v1 512 -3 1 100",
		"ckptmanifest v1 512 40 2 200 100",
		"ckptmanifest v1 512 40 2 100 100",
		"ckptmanifest v2 512 40 0",
	} {
		if cycles, lead, err := decodeManifest([]byte(in)); err == nil {
			t.Errorf("decode(%q) accepted %v lead %d", in, cycles, lead)
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

// FuzzDecodeManifest: the decoder never panics, and any manifest it
// accepts survives encode→decode unchanged.
func FuzzDecodeManifest(f *testing.F) {
	f.Add(encodeManifest(512, 40, nil))
	f.Add(encodeManifest(512, 40, []int64{7_500, 8_012, 8_524}))
	f.Add([]byte("ckptmanifest v1 512 40 2 200 100"))
	f.Add([]byte("ckptmanifest v1 512 40 9223372036854775807"))
	f.Fuzz(func(t *testing.T, b []byte) {
		cycles, lead, err := decodeManifest(b)
		if err != nil {
			return
		}
		got, gotLead, err := decodeManifest(encodeManifest(0, lead, cycles))
		if err != nil {
			t.Fatalf("re-encoding of accepted %v lead %d fails decode: %v", cycles, lead, err)
		}
		if gotLead != lead || !reflect.DeepEqual(got, cycles) {
			t.Fatalf("round trip changed %v lead %d into %v lead %d", cycles, lead, got, gotLead)
		}
	})
}
