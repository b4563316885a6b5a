package inject

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"avfstress/internal/avf"
	"avfstress/internal/uarch"
)

// rootCauseCampaign runs the fixed root-cause campaign the result-entry
// tests share, cache-free.
func rootCauseCampaign(t *testing.T) *Result {
	t.Helper()
	o := testOptions(t, 120)
	o.RootCause = true
	o.Rates = uarch.EDRRates()
	res, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.RootCause == nil || len(res.RootCause.Instrs) == 0 || res.Detected == 0 {
		t.Fatalf("degenerate campaign: %+v", res)
	}
	return res
}

// minimalResult is the smallest result the campaign decoder accepts.
func minimalResult() *Result {
	return &Result{Golden: &avf.Result{Config: "c", Workload: "w", Cycles: 1},
		Structures: make([]StructureResult, uarch.NumStructures)}
}

// TestCampaignResultPinned pins the encoded result of one fixed
// root-cause campaign to the campaign entry's key part. A change to
// sampling, allocation, pruning, aggregation, attribution or the Result
// layout changes these bytes, and a cache directory written before it
// would serve the old result under the same key: such a change must
// bump campaignKeyPart (DESIGN.md §7) and re-pin both values together.
func TestCampaignResultPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	const (
		pinnedKeyPart = "campaign:json1"
		pinnedSHA     = "2030ee585a49559ed0256b532e661149efef9f5809e34adbddc00a498213fdb8"
	)
	b, err := resultCodec.Encode(rootCauseCampaign(t))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); campaignKeyPart != pinnedKeyPart || got != pinnedSHA {
		t.Errorf("campaign entry %s encodes to sha256 %s, pinned %s at %s: bump campaignKeyPart and re-pin both",
			campaignKeyPart, got, pinnedSHA, pinnedKeyPart)
	}
}

// TestCampaignResultRoundTrip: a real campaign's result, root-cause
// tables and every float64 included, decodes to a deep-equal value, so
// a served result renders the bytes of a computed one.
func TestCampaignResultRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	want := rootCauseCampaign(t)
	b, err := resultCodec.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resultCodec.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\ngot  %+v\nwant %+v", got, want)
	}
	if got.String() != want.String() {
		t.Error("round trip changed the report")
	}
}

// TestDecodeResultRejectsMalformed: the campaign decoder rejects
// anything but exactly one complete result.
func TestDecodeResultRejectsMalformed(t *testing.T) {
	good, err := resultCodec.Encode(minimalResult())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeResult(good); err != nil {
		t.Fatalf("valid entry rejected: %v", err)
	}
	noGolden := minimalResult()
	noGolden.Golden = nil
	oneStratum := minimalResult()
	oneStratum.Structures = oneStratum.Structures[:1]
	enc := func(r *Result) string {
		b, err := resultCodec.Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	s := string(good)
	for name, b := range map[string]string{
		"empty":         "",
		"null":          "null",
		"no golden":     enc(noGolden),
		"one stratum":   enc(oneStratum),
		"unknown field": strings.Replace(s, `{"Config"`, `{"Extra":1,"Config"`, 1),
		"trailing":      s + "{}",
		"truncated":     s[:len(s)-1],
		"golden blob":   "injgld1\x00",
	} {
		if r, err := decodeResult([]byte(b)); err == nil {
			t.Errorf("%s: accepted %+v", name, r)
		}
	}
}

// FuzzDecodeCampaign: the campaign decoder never panics, and anything
// it accepts re-encodes to bytes that decode to an equal result.
func FuzzDecodeCampaign(f *testing.F) {
	good, err := resultCodec.Encode(minimalResult())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte("null"))
	f.Add([]byte(`{"Golden":{},"Structures":[{},{},{}]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeResult(b)
		if err != nil {
			return
		}
		again, err := resultCodec.Encode(r)
		if err != nil {
			t.Fatalf("accepted entry does not re-encode: %v", err)
		}
		r2, err := decodeResult(again)
		if err != nil {
			t.Fatalf("re-encoded entry rejected: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("re-encoded entry decodes differently:\n%+v\n%+v", r, r2)
		}
	})
}
