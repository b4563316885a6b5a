package inject

import (
	"os"
	"path/filepath"
	"testing"

	"avfstress/internal/simcache"
)

// TestRootCauseByteDeterministic: the root-cause tables are part of the
// rendered report, so they inherit the campaign's byte-determinism
// contract — identical across runs and cache states (off, cold, warm).
// A warm campaign is served its memoised result; a campaign whose
// result entry is gone attributes from first-divergent-commit records
// decoded from its outcome table, a cold one from the replay's own, and
// the tables must come out identical on every path.
func TestRootCauseByteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	o := testOptions(t, 200)
	o.RootCause = true
	base, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	if base.RootCause == nil {
		t.Fatal("RootCause campaign returned no attribution tables")
	}
	if base.RootCause.Corrupted == 0 || base.RootCause.Attributed == 0 {
		t.Fatalf("degenerate attribution: %+v", base.RootCause)
	}
	if len(base.RootCause.Instrs) == 0 || len(base.RootCause.Classes) == 0 {
		t.Fatal("attribution produced empty tables")
	}
	want := base.String()

	dir := t.TempDir()
	for _, tc := range []struct {
		name  string
		cache bool
	}{
		{"no-cache", false},
		{"cold-cache", true},
		{"warm-cache", true},
		{"warm-tables", true},
	} {
		if tc.name == "warm-tables" {
			dropResultEntries(t, dir)
		}
		o.Cache = nil
		if tc.cache {
			o.Cache = simcache.New(simcache.Options{Dir: dir})
		}
		got, err := Run(bg, o)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.String() != want {
			t.Errorf("%s: report differs from baseline:\n--- want\n%s\n--- got\n%s", tc.name, want, got)
		}
		if st := o.Cache.Stats(); tc.name == "warm-tables" && (st.Simulated != 1 || st.BlobMisses != 0) {
			t.Errorf("warm-tables stats %v, want only the campaign result recomputed", st)
		}
	}
}

// dropResultEntries deletes a disk tier's JSON entries, the campaign
// results, leaving its golden entries and outcome tables.
func dropResultEntries(t *testing.T, dir string) {
	t.Helper()
	versionDir := filepath.Join(dir, simcache.EngineVersion)
	ents, err := os.ReadDir(versionDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".json" {
			if err := os.Remove(filepath.Join(versionDir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRootCauseOffByDefault: campaigns without the knob carry no
// attribution tables and render the legacy report.
func TestRootCauseOffByDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	o := testOptions(t, 40)
	res, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.RootCause != nil {
		t.Error("RootCause tables attached without Options.RootCause")
	}
}
