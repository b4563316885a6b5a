package simcache

// Corruption-quarantine tests (DESIGN.md §11): flipping arbitrary bits
// in any on-disk cache entry — result or blob tier — must yield a
// quarantined entry and a miss, observable in Stats, and never a crash
// or a wrong value handed to a caller.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"avfstress/internal/avf"
	"avfstress/internal/persist"
)

// writeValidFrameInvalidJSON replaces path with an entry whose frame
// validates but whose payload is not JSON.
func writeValidFrameInvalidJSON(t *testing.T, path string) {
	t.Helper()
	if err := os.WriteFile(path, persist.EncodeFramed([]byte("not json")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// diskEntry locates the single live disk entry with the given extension.
func diskEntry(t *testing.T, dir, ext string) string {
	t.Helper()
	var matches []string
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ext {
			matches = append(matches, filepath.Join(dir, e.Name()))
		}
	}
	if len(matches) != 1 {
		t.Fatalf("want exactly one %s entry in %s, have %d", ext, dir, len(matches))
	}
	return matches[0]
}

func quarantineCount(t *testing.T, versionDir string) int {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(versionDir, QuarantineDirName))
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestResultBitFlipQuarantinesEveryOffset: for a flipped bit at every
// byte offset of a result entry, a cold store must re-simulate (miss),
// quarantine the corrupt file, and return the canonical result — the
// report can never diff.
func TestResultBitFlipQuarantinesEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Dir: dir})
	key := s.Key("corrupt-result")
	want := sampleResult("victim")
	if _, err := Do(s, key, Results, func() (*avf.Result, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	versionDir := filepath.Join(dir, EngineVersion)
	path := diskEntry(t, versionDir, ".json")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	quarantined := 0
	for off := 0; off < len(good); off++ {
		mut := append([]byte(nil), good...)
		mut[off] ^= 1 << (off % 8)
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		cold := New(Options{Dir: dir}) // fresh memory tier: forces a disk read
		sims := 0
		got, err := Do(cold, key, Results, func() (*avf.Result, error) { sims++; return sampleResult("victim"), nil })
		if err != nil {
			t.Fatalf("offset %d: corrupt entry surfaced as an error: %v", off, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("offset %d: corrupt entry produced a different result", off)
		}
		if sims != 1 {
			t.Fatalf("offset %d: corrupt entry served as a hit (sims=%d)", off, sims)
		}
		if st := cold.Stats(); st.Quarantined != 1 {
			t.Fatalf("offset %d: stats %+v, want Quarantined=1", off, st)
		}
		quarantined++
		// The re-simulation rewrote a clean entry; confirm before the
		// next round mutates it again.
		if rewritten, err := os.ReadFile(path); err != nil || !bytes.Equal(rewritten, good) {
			t.Fatalf("offset %d: entry not healed after quarantine (err=%v)", off, err)
		}
	}
	if got := quarantineCount(t, versionDir); got == 0 {
		t.Error("quarantine directory is empty after corruption")
	}
}

// TestBlobBitFlipQuarantinesEveryOffset: same property for the blob
// tier. The 1-byte trial-outcome blobs are the sharpest case — without
// the CRC frame a payload bit flip would silently invert a trial
// outcome.
func TestBlobBitFlipQuarantinesEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Dir: dir})
	key := s.Key("corrupt-blob")
	one := func() ([]byte, error) { return []byte{1}, nil }
	if _, err := Do(s, key, bytesCodec, one); err != nil {
		t.Fatal(err)
	}
	versionDir := filepath.Join(dir, EngineVersion)
	path := diskEntry(t, versionDir, ".bin")
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
			cold := New(Options{Dir: dir})
			if _, err := Do(cold, key, bytesCodec, one); err != nil {
				t.Fatalf("offset %d bit %d: corrupt blob surfaced as an error: %v", off, bit, err)
			}
			st := cold.Stats()
			if st.Quarantined != 1 || st.BlobMisses != 1 {
				t.Fatalf("offset %d bit %d: stats %+v, want Quarantined=1 BlobMisses=1", off, bit, st)
			}
			// Restore the good entry for the next mutation.
			if err := os.WriteFile(path, good, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestTruncatedAndLegacyEntriesAreMisses: short files (torn writes cut
// mid-entry) and pre-frame legacy files (plain payload bytes, no frame)
// quarantine as misses on every read path.
func TestTruncatedAndLegacyEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Dir: dir})
	rkey, bkey := s.Key("res"), s.Key("blob")
	if _, err := Do(s, rkey, Results, func() (*avf.Result, error) { return sampleResult("legacy"), nil }); err != nil {
		t.Fatal(err)
	}
	blob := func() ([]byte, error) { return []byte{0, 1, 2, 3}, nil }
	if _, err := Do(s, bkey, bytesCodec, blob); err != nil {
		t.Fatal(err)
	}
	versionDir := filepath.Join(dir, EngineVersion)
	rpath := diskEntry(t, versionDir, ".json")
	bpath := diskEntry(t, versionDir, ".bin")

	for _, tc := range []struct {
		name    string
		mutate  func() error
		expectQ int
	}{
		{"truncated result", func() error { return os.Truncate(rpath, 7) }, 1},
		{"empty blob file", func() error { return os.Truncate(bpath, 0) }, 1},
		{"legacy unframed result", func() error {
			return os.WriteFile(rpath, []byte(`{"Config":"legacy"}`), 0o644)
		}, 1},
		{"legacy unframed blob", func() error { return os.WriteFile(bpath, []byte{1}, 0o644) }, 1},
	} {
		if err := tc.mutate(); err != nil {
			t.Fatal(err)
		}
		cold := New(Options{Dir: dir})
		sims := 0
		if _, err := Do(cold, rkey, Results, func() (*avf.Result, error) { sims++; return sampleResult("legacy"), nil }); err != nil {
			t.Fatalf("%s: result read errored: %v", tc.name, err)
		}
		if _, err := Do(cold, bkey, bytesCodec, func() ([]byte, error) { sims++; return blob() }); err != nil {
			t.Fatalf("%s: blob read errored: %v", tc.name, err)
		}
		if sims == 0 {
			t.Fatalf("%s: nothing was treated as a miss", tc.name)
		}
		if st := cold.Stats(); st.Quarantined < int64(tc.expectQ) {
			t.Fatalf("%s: stats %+v, want Quarantined>=%d", tc.name, st, tc.expectQ)
		}
		// Heal both entries for the next case.
		s2 := New(Options{Dir: dir})
		if _, err := Do(s2, rkey, Results, func() (*avf.Result, error) { return sampleResult("legacy"), nil }); err != nil {
			t.Fatal(err)
		}
		if _, err := Do(s2, bkey, bytesCodec, blob); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFramedPayloadDecodeFailureQuarantines: a frame-valid entry whose
// JSON payload does not decode (writer-side bug, divergent build) is
// also quarantined, not an error.
func TestFramedPayloadDecodeFailureQuarantines(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Dir: dir})
	key := s.Key("bad-payload")
	if _, err := Do(s, key, Results, func() (*avf.Result, error) { return sampleResult("x"), nil }); err != nil {
		t.Fatal(err)
	}
	versionDir := filepath.Join(dir, EngineVersion)
	path := diskEntry(t, versionDir, ".json")
	// Valid frame, invalid JSON.
	writeValidFrameInvalidJSON(t, path)
	cold := New(Options{Dir: dir})
	sims := 0
	if _, err := Do(cold, key, Results, func() (*avf.Result, error) { sims++; return sampleResult("x"), nil }); err != nil {
		t.Fatal(err)
	}
	if sims != 1 {
		t.Fatalf("frame-valid garbage served as a hit (sims=%d)", sims)
	}
	if st := cold.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats %+v, want Quarantined=1", st)
	}
}

// TestDecodeRejectionQuarantinesEveryKind: the store applies the
// JSON rule above to every codec — a frame-valid binary entry its codec
// rejects (an older payload version) is quarantined and recomputed,
// and the recomputed entry then serves hits.
func TestDecodeRejectionQuarantinesEveryKind(t *testing.T) {
	dir := t.TempDir()
	key := New(Options{}).Key("rejected")
	v2 := Codec[[]byte]{Ext: ".bin", Encode: bytesCodec.Encode, Decode: func(b []byte) ([]byte, error) {
		if !bytes.HasPrefix(b, []byte("v2:")) {
			return nil, errors.New("not a v2 payload")
		}
		return b, nil
	}}
	if _, err := Do(New(Options{Dir: dir}), key, bytesCodec, func() ([]byte, error) { return []byte("v1:legacy"), nil }); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Dir: dir})
	sims := 0
	fresh := func() ([]byte, error) { sims++; return []byte("v2:fresh"), nil }
	if v, err := Do(s, key, v2, fresh); err != nil || string(v) != "v2:fresh" || sims != 1 {
		t.Fatalf("rejected entry: %q, %v, sims=%d; want a recomputation", v, err, sims)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("stats %+v, want Quarantined=1", st)
	}
	if got := quarantineCount(t, filepath.Join(dir, EngineVersion)); got != 1 {
		t.Errorf("quarantine dir holds %d entries, want 1", got)
	}
	warm := New(Options{Dir: dir})
	if v, err := Do(warm, key, v2, fresh); err != nil || string(v) != "v2:fresh" || sims != 1 {
		t.Fatalf("healed entry: %q, %v, sims=%d; want a disk hit", v, err, sims)
	}
	if st := warm.Stats(); st.DiskHits != 1 || st.Quarantined != 0 {
		t.Errorf("stats %+v, want one clean disk hit", st)
	}
}
