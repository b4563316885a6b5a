package inject

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"avfstress/internal/isa"
	"avfstress/internal/persist"
	"avfstress/internal/pipe"
	"avfstress/internal/simcache"
)

func sampleTrials() []pipe.FaultTrial {
	return []pipe.FaultTrial{
		{}, // zero record
		{Corrupted: false, Diverge: pipe.Diverge{Seq: -1, SrcSlot: -1}},                                  // masked
		{Corrupted: true, Diverge: pipe.Diverge{Seq: -1, SrcSlot: -1}},                                   // corrupted, no consumer
		{Corrupted: true, Diverge: pipe.Diverge{Seq: 12345, PC: 0x10004, Op: isa.OpMul, SrcSlot: 1}},     // RF consumer
		{Corrupted: true, Diverge: pipe.Diverge{Seq: 1 << 40, PC: 0x1000, Op: isa.OpStore, SrcSlot: -1}}, // init PC, big seq
		{Corrupted: true, Diverge: pipe.Diverge{Seq: 0, PC: 0x10000, Op: isa.OpBranch, SrcSlot: 0}},      // stream head
	}
}

// TestTrialBlobRoundTrip: a slice blob carries its trial records
// losslessly, in order, for every table size including the empty one.
func TestTrialBlobRoundTrip(t *testing.T) {
	all := sampleTrials()
	for n := 0; n <= len(all); n++ {
		want := all[:n]
		b := encodeSlice(want)
		got, err := decodeSlice(b, n)
		if err != nil {
			t.Fatalf("decode %d records: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip of %d records: got %+v, want %+v", n, got, want)
		}
	}
	// The codec does not carry the replay digest.
	withDigest := []pipe.FaultTrial{{Corrupted: true, Digest: 0xdead, Diverge: pipe.Diverge{Seq: -1, SrcSlot: -1}}}
	got, err := decodeSlice(encodeSlice(withDigest), 1)
	if err != nil || got[0].Digest != 0 || !got[0].Corrupted {
		t.Errorf("digest round trip: %+v, %v", got, err)
	}
}

// TestLegacyTrialBlobFailsDecode: per-trial blobs from earlier engines —
// v1 a single outcome byte, v2 one "injtrial" text line — must fail the
// slice decode so a campaign discards and replays them rather than
// misreading them. So must every truncation, extension, count mismatch
// and out-of-range field of a valid table.
func TestLegacyTrialBlobFailsDecode(t *testing.T) {
	for _, b := range [][]byte{{0}, {1}, {}, []byte("injtrial v2"), []byte("injtrial v2 1 -1 0 0 -1"),
		[]byte("injtrial v2 1 12345 10004 3 1"), []byte("injtrial v1 1 0 0 0 0")} {
		for _, n := range []int{0, 1, len(b)} {
			if tr, err := decodeSlice(b, n); err == nil {
				t.Errorf("decode(%q, %d) accepted a legacy blob: %+v", b, n, tr)
			}
		}
	}
	good := encodeSlice(sampleTrials())
	n := len(sampleTrials())
	if _, err := decodeSlice(good, n); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	reject := func(what string, b []byte, n int) {
		t.Helper()
		if tr, err := decodeSlice(b, n); err == nil {
			t.Errorf("%s: accepted %+v", what, tr)
		}
	}
	reject("count mismatch low", good, n-1)
	reject("count mismatch high", good, n+1)
	reject("negative count", good, -1)
	reject("truncated", good[:len(good)-1], n)
	reject("trailing byte", append(append([]byte(nil), good...), 0), n)
	reject("header only", good[:sliceHeader], n)
	mut := func(off int, v byte) []byte {
		b := append([]byte(nil), good...)
		b[off] = v
		return b
	}
	rec := sliceHeader + 3*sliceRecord // the RF-consumer record
	reject("bad magic", mut(0, 'X'), n)
	reject("header count", mut(len(sliceMagic), byte(n+1)), n)
	reject("flags out of range", mut(rec, 2), n)
	reject("op out of range", mut(rec+17, byte(isa.OpBranch)+1), n)
	reject("src slot below -1", mut(rec+18, 0xfe), n)
	reject("seq below -1", mut(rec+8, 0x80), n)
}

// FuzzDecodeSlice: the decoder never panics, accepts only tables of
// exactly the requested size, and anything it accepts re-encodes to the
// identical bytes (canonical form), so two distinct blobs can never
// alias one slice's outcomes. The committed corpus under testdata/fuzz
// adds the legacy per-trial encodings.
func FuzzDecodeSlice(f *testing.F) {
	all := sampleTrials()
	for n := range all {
		f.Add(encodeSlice(all[n:]), len(all)-n)
	}
	f.Add([]byte{1}, 1)
	f.Add([]byte("injtrial v2 1 -1 0 0 -1"), 1)
	f.Fuzz(func(t *testing.T, b []byte, n int) {
		tr, err := decodeSlice(b, n)
		if err != nil {
			return
		}
		if len(tr) != n {
			t.Fatalf("accepted %d records for a %d-record slice", len(tr), n)
		}
		if got := encodeSlice(tr); !bytes.Equal(got, b) {
			t.Fatalf("accepted non-canonical blob %x (canonical %x)", b, got)
		}
	})
}

// TestTrialBlobBitFlipQuarantinesEveryOffset: a slice blob is a binary
// table whose every byte carries an outcome or a root-cause field a
// flip could silently alter — the CRC frame must turn every single-bit
// corruption of the on-disk entry into a quarantined miss before the
// decoder ever sees it.
func TestTrialBlobBitFlipQuarantinesEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s := simcache.New(simcache.Options{Dir: dir})
	key := s.Key("sliceblob-corrupt")
	codec := sliceCodec(len(sampleTrials()))
	if _, err := simcache.Do(s, key, codec, func() ([]pipe.FaultTrial, error) { return sampleTrials(), nil }); err != nil {
		t.Fatal(err)
	}
	versionDir := filepath.Join(dir, simcache.EngineVersion)
	var path string
	ents, err := os.ReadDir(versionDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".bin" {
			path = filepath.Join(versionDir, e.Name())
		}
	}
	if path == "" {
		t.Fatal("no blob entry on disk")
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(good); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), good...)
			mut[off] ^= 1 << bit
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			cold := simcache.New(simcache.Options{Dir: dir})
			replays := 0
			if _, err := simcache.Do(cold, key, codec, func() ([]pipe.FaultTrial, error) { replays++; return sampleTrials(), nil }); err != nil || replays != 1 {
				t.Fatalf("offset %d bit %d: corrupt slice blob served as a hit (replays=%d, err=%v)", off, bit, replays, err)
			}
			if st := cold.Stats(); st.Quarantined != 1 {
				t.Fatalf("offset %d bit %d: stats %+v, want Quarantined=1", off, bit, st)
			}
			if err := os.WriteFile(path, good, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCampaignHealsLegacyTrialBlobs: a cache directory holding
// v-previous entries — every entry, blobs and the campaign result alike,
// rewritten as a framed v1 one-byte outcome — must not poison a
// campaign: each undecodable entry is quarantined and recomputed, and
// the report comes out byte-identical to the clean run's.
func TestCampaignHealsLegacyTrialBlobs(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	dir := t.TempDir()
	o := testOptions(t, 80)
	o.Cache = simcache.New(simcache.Options{Dir: dir})
	clean, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}

	// Downgrade every on-disk entry (campaign result, trial outcomes and
	// golden info alike) to a legacy one-byte entry with a valid frame.
	versionDir := filepath.Join(dir, simcache.EngineVersion)
	ents, err := os.ReadDir(versionDir)
	if err != nil {
		t.Fatal(err)
	}
	downgraded := map[string]int{}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if err := os.WriteFile(filepath.Join(versionDir, e.Name()),
			persist.EncodeFramed([]byte{1}), 0o644); err != nil {
			t.Fatal(err)
		}
		downgraded[filepath.Ext(e.Name())]++
	}
	if downgraded[".bin"] != 2 || downgraded[".json"] != 1 {
		t.Fatalf("campaign left %v entries, want 2 .bin and 1 .json", downgraded)
	}

	o.Cache = simcache.New(simcache.Options{Dir: dir})
	healed, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	if st := o.Cache.Stats(); st.Quarantined != 3 || st.Simulated != 3 {
		t.Errorf("stats %+v, want all 3 legacy entries quarantined and recomputed", st)
	}
	if healed.String() != clean.String() {
		t.Errorf("report differs after healing legacy entries:\nclean:\n%s\nhealed:\n%s", clean, healed)
	}
}
