package persist

import (
	"os"
	"path/filepath"
	"testing"

	"avfstress/internal/codegen"
	"avfstress/internal/uarch"
)

func TestStressmarkRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mark.json")
	in := SavedStressmark{
		Config: "Baseline",
		Rates:  "rhc",
		Knobs: codegen.Knobs{
			LoopSize: 81, NumLoads: 29, NumStores: 28, NumIndepArith: 5,
			MissDependent: 7, AvgChainLength: 2.14, DepDistance: 6,
			FracLongLatency: 0.8, FracRegReg: 0.93, Seed: 42, L2Hit: true,
		},
		Fitness: 0.62,
	}
	if err := SaveStressmark(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadStressmark(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Knobs != in.Knobs || out.Config != in.Config || out.Fitness != in.Fitness {
		t.Errorf("round trip lost data:\nin  %+v\nout %+v", in, out)
	}
	// The loaded knobs regenerate the identical program.
	cfg := uarch.Baseline()
	p1, _, err := codegen.Generate(cfg, in.Knobs, 1000)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := codegen.Generate(cfg, out.Knobs, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Listing() != p2.Listing() {
		t.Error("persisted knobs regenerate a different program")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadStressmark("/nonexistent/x.json"); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStressmark(bad); err == nil {
		t.Error("corrupt stressmark accepted")
	}
}
