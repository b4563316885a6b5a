package workloads

import (
	"math"
	"testing"

	"avfstress/internal/isa"
	"avfstress/internal/uarch"
)

func TestSuiteCountsMatchPaper(t *testing.T) {
	// The paper evaluates 11 SPECint, 10 SPECfp and 12 MiBench programs.
	count := map[Suite]int{}
	for _, p := range Profiles() {
		count[p.Suite]++
	}
	if n := count[SPECInt]; n != 11 {
		t.Errorf("SPECint proxies = %d, want 11", n)
	}
	if n := count[SPECFP]; n != 10 {
		t.Errorf("SPECfp proxies = %d, want 10", n)
	}
	if n := count[MiBench]; n != 12 {
		t.Errorf("MiBench proxies = %d, want 12", n)
	}
	if n := len(Profiles()); n != 33 {
		t.Errorf("total proxies = %d, want 33", n)
	}
}

func TestAllProfilesValidateAndBuild(t *testing.T) {
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	for _, pf := range Profiles() {
		if err := pf.Validate(); err != nil {
			t.Errorf("%s: %v", pf.Name, err)
			continue
		}
		p, err := pf.Build(cfg, 1)
		if err != nil {
			t.Errorf("%s: %v", pf.Name, err)
			continue
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: generated program invalid: %v", pf.Name, err)
		}
		if p.Name != pf.Name {
			t.Errorf("program named %q, want %q", p.Name, pf.Name)
		}
	}
}

func TestByName(t *testing.T) {
	pf, err := ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	if pf.Suite != SPECInt || pf.ChaseFrac < 0.5 {
		t.Errorf("mcf profile unexpected: %+v", pf)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestBuildDeterministic(t *testing.T) {
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	pf, _ := ByName("403.gcc")
	a, err := pf.Build(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pf.Build(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Listing() != b.Listing() {
		t.Error("same seed produced different programs")
	}
	c, err := pf.Build(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.Listing() == c.Listing() {
		t.Error("different seeds produced identical programs")
	}
}

func TestMixApproximatesProfile(t *testing.T) {
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	for _, name := range []string{"403.gcc", "459.GemsFDTD", "susan"} {
		pf, _ := ByName(name)
		p, err := pf.Build(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		var loads, stores, branches, nops int
		for _, in := range p.Body {
			switch in.Op {
			case isa.OpLoad:
				loads++
			case isa.OpStore:
				stores++
			case isa.OpBranch:
				branches++
			case isa.OpNop:
				nops++
			}
		}
		n := float64(len(p.Body))
		if got := float64(loads) / n; math.Abs(got-pf.LoadFrac) > 0.05 {
			t.Errorf("%s: load fraction %.3f, profile %.3f", name, got, pf.LoadFrac)
		}
		if got := float64(stores) / n; math.Abs(got-pf.StoreFrac) > 0.05 {
			t.Errorf("%s: store fraction %.3f, profile %.3f", name, got, pf.StoreFrac)
		}
		// +1 for the backedge.
		if got := float64(branches) / n; math.Abs(got-pf.BranchFrac) > 0.06 {
			t.Errorf("%s: branch fraction %.3f, profile %.3f", name, got, pf.BranchFrac)
		}
		if pf.UnACEFrac > 0.05 && nops == 0 {
			t.Errorf("%s: no NOPs despite un-ACE fraction %.2f", name, pf.UnACEFrac)
		}
	}
}

func TestWorkingSetScalesWithL2(t *testing.T) {
	small := uarch.Scaled(uarch.Baseline(), 32)
	big := uarch.Scaled(uarch.Baseline(), 8)
	pf, _ := ByName("429.mcf")
	ps, err := pf.Build(small, 1)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := pf.Build(big, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ps.FootprintBytes*4 != pb.FootprintBytes {
		t.Errorf("footprints %d and %d do not scale with L2 (4x)", ps.FootprintBytes, pb.FootprintBytes)
	}
}

func TestInvalidProfilesRejected(t *testing.T) {
	bad := []Profile{
		{Name: "sum>1", LoadFrac: 0.5, StoreFrac: 0.4, BranchFrac: 0.2,
			Lanes: 2, ChainLen: 1, WorkingSetL2x: 1, BodySize: 50},
		{Name: "neg", LoadFrac: -0.1, Lanes: 2, ChainLen: 1, WorkingSetL2x: 1, BodySize: 50},
		{Name: "tiny-body", LoadFrac: 0.1, Lanes: 2, ChainLen: 1, WorkingSetL2x: 1, BodySize: 2},
		{Name: "no-ws", LoadFrac: 0.1, Lanes: 2, ChainLen: 1, BodySize: 50},
		{Name: "no-lanes", LoadFrac: 0.1, Lanes: 0, ChainLen: 1, WorkingSetL2x: 1, BodySize: 50},
	}
	for _, pf := range bad {
		if err := pf.Validate(); err == nil {
			t.Errorf("profile %s accepted", pf.Name)
		}
	}
}

func TestMemoryBoundProfilesChaseAcrossL2(t *testing.T) {
	// mcf/omnetpp/astar must have super-L2 working sets and chase loads,
	// the paper's canonical memory-bound behaviours.
	for _, name := range []string{"429.mcf", "471.omnetpp", "473.astar"} {
		pf, _ := ByName(name)
		if pf.WorkingSetL2x <= 1.5 {
			t.Errorf("%s working set %.1f×L2, want > 1.5", name, pf.WorkingSetL2x)
		}
		if pf.ChaseFrac < 0.3 {
			t.Errorf("%s chase fraction %.2f, want ≥ 0.3", name, pf.ChaseFrac)
		}
	}
	// MiBench kernels stay small.
	for _, name := range []string{"crc32", "bitcount", "sha"} {
		pf, _ := ByName(name)
		if pf.WorkingSetL2x > 0.5 {
			t.Errorf("%s working set %.2f×L2, want small", name, pf.WorkingSetL2x)
		}
	}
}
