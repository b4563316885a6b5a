package codegen

import (
	"strings"
	"testing"
	"testing/quick"

	"avfstress/internal/isa"
	"avfstress/internal/uarch"
)

func baseKnobs() Knobs {
	return Knobs{
		LoopSize: 81, NumLoads: 29, NumStores: 28, NumIndepArith: 5,
		MissDependent: 7, AvgChainLength: 2.14, DepDistance: 6,
		FracLongLatency: 0.8, FracRegReg: 0.93, Seed: 42,
	}
}

func TestNormalizeIsFixedPoint(t *testing.T) {
	cfg := uarch.Baseline()
	k := baseKnobs().Normalize(cfg)
	if again := k.Normalize(cfg); again != k {
		t.Errorf("Normalize not idempotent:\n%+v\n%+v", k, again)
	}
}

func TestNormalizeCapsLoopSize(t *testing.T) {
	cfg := uarch.Baseline()
	k := baseKnobs()
	k.LoopSize = 500
	k = k.Normalize(cfg)
	if k.LoopSize != int(MaxLoopFactor*float64(cfg.Core.ROBEntries)) {
		t.Errorf("loop size %d, want 1.2×ROB = 96", k.LoopSize)
	}
}

func TestNormalizeRepairsOverfullBody(t *testing.T) {
	cfg := uarch.Baseline()
	k := Knobs{LoopSize: 10, NumLoads: 40, NumStores: 40, NumIndepArith: 20,
		MissDependent: 30, DepDistance: 3}
	k = k.Normalize(cfg)
	if n := k.Normalize(cfg); n != k {
		t.Fatalf("repaired knobs still not normalised: %+v, want %+v", k, n)
	}
	if k.ChainArith() < k.foldsNeeded() {
		t.Errorf("chain arithmetic %d cannot cover %d folds", k.ChainArith(), k.foldsNeeded())
	}
	if _, _, err := Generate(cfg, k, 1000); err != nil {
		t.Errorf("repaired knobs fail to generate: %v", err)
	}
}

func TestNormalizeSingleStoreDropsIndep(t *testing.T) {
	cfg := uarch.Baseline()
	k := baseKnobs()
	k.NumStores = 1
	k = k.Normalize(cfg)
	if k.NumIndepArith != 0 {
		t.Error("independent arithmetic must be dropped with a single store")
	}
	if k.NumLoads != 1 {
		t.Error("sweep loads without load chains must be dropped")
	}
}

func TestGenerateBodyMatchesKnobs(t *testing.T) {
	cfg := uarch.Baseline()
	p, k, err := Generate(cfg, baseKnobs(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Body) != k.LoopSize {
		t.Fatalf("body length %d != loop size %d", len(p.Body), k.LoopSize)
	}
	var loads, stores, arith, branches int
	for _, in := range p.Body {
		switch in.Op {
		case isa.OpLoad:
			loads++
		case isa.OpStore:
			stores++
		case isa.OpAdd, isa.OpMul:
			arith++
		case isa.OpBranch:
			branches++
		case isa.OpNop:
			t.Error("stressmark must not contain NOPs")
		}
	}
	if loads != k.NumLoads {
		t.Errorf("loads = %d, want %d", loads, k.NumLoads)
	}
	if stores != k.NumStores {
		t.Errorf("stores = %d, want %d", stores, k.NumStores)
	}
	if branches != 1 {
		t.Errorf("branches = %d, want 1 (the backedge)", branches)
	}
	for _, in := range p.Body {
		if in.UnACE {
			t.Error("stressmark instructions must all be ACE")
		}
	}
	// The first instruction is the self-dependent chase.
	ch := p.Body[0]
	if ch.Op != isa.OpLoad || ch.Dest != regChase || ch.Src1 != regChase {
		t.Errorf("body[0] is not the chase load: %v", ch)
	}
	// The last is the backedge.
	if p.Body[len(p.Body)-1].Op != isa.OpBranch {
		t.Error("body must end with the loop branch")
	}
}

func TestGenerateLongLatencyFraction(t *testing.T) {
	cfg := uarch.Baseline()
	count := func(frac float64) (mul, add int) {
		k := baseKnobs()
		k.FracLongLatency = frac
		p, _, err := Generate(cfg, k, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range p.Body {
			switch in.Op {
			case isa.OpMul:
				mul++
			case isa.OpAdd:
				add++
			}
		}
		return
	}
	mul0, _ := count(0)
	// The induction add is never a mul; chain arithmetic at frac 0 has no
	// muls at all.
	if mul0 != 0 {
		t.Errorf("frac 0 produced %d muls", mul0)
	}
	mul1, add1 := count(1)
	if add1 != 1 { // only the induction add remains
		t.Errorf("frac 1 left %d adds, want 1 (induction)", add1)
	}
	if mul1 == 0 {
		t.Error("frac 1 produced no muls")
	}
}

func TestGenerateMissVsHitRegions(t *testing.T) {
	cfg := uarch.Baseline()
	miss, _, err := Generate(cfg, baseKnobs(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	hk := baseKnobs()
	hk.L2Hit = true
	hit, _, err := Generate(cfg, hk, 1000)
	if err != nil {
		t.Fatal(err)
	}
	l2 := uint64(cfg.Mem.L2.SizeBytes)
	if miss.FootprintBytes < 2*l2 {
		t.Errorf("miss-mode region %d < 2×L2", miss.FootprintBytes)
	}
	// Paper: region covers page_size × DTLB entries.
	if want := uint64(cfg.Mem.DTLB.Entries * cfg.Mem.DTLB.PageBytes); miss.FootprintBytes < want {
		t.Errorf("miss-mode region %d does not cover the DTLB reach %d", miss.FootprintBytes, want)
	}
	if hit.FootprintBytes > l2 {
		t.Errorf("hit-mode region %d exceeds the L2", hit.FootprintBytes)
	}
	if hit.FootprintBytes <= uint64(cfg.Mem.DL1.SizeBytes) {
		t.Errorf("hit-mode region %d fits in DL1 (would not miss it)", hit.FootprintBytes)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := uarch.Baseline()
	a, _, err := Generate(cfg, baseKnobs(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(cfg, baseKnobs(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Listing() != b.Listing() {
		t.Error("same knobs produced different programs")
	}
	k2 := baseKnobs()
	k2.Seed = 43
	c, _, err := Generate(cfg, k2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Listing() == c.Listing() {
		t.Error("different seeds produced identical placement")
	}
}

func TestACEClosureOnReferenceKnobs(t *testing.T) {
	cfg := uarch.Baseline()
	for _, k := range []Knobs{
		baseKnobs(),
		{LoopSize: 74, NumLoads: 20, NumStores: 20, NumIndepArith: 11, MissDependent: 4,
			AvgChainLength: 2.7, DepDistance: 1, FracLongLatency: 0.7, FracRegReg: 0.52, Seed: 1},
		{LoopSize: 54, NumLoads: 2, NumStores: 6, NumIndepArith: 5, MissDependent: 15,
			AvgChainLength: 6.5, DepDistance: 1, FracLongLatency: 0.9, FracRegReg: 0.4, Seed: 1, L2Hit: true},
	} {
		p, _, err := Generate(cfg, k, 1000)
		if err != nil {
			t.Fatalf("%+v: %v", k, err)
		}
		if err := CheckACEClosure(p); err != nil {
			t.Errorf("%+v: %v", k, err)
		}
	}
}

// Property: any knob vector, however wild, normalises to something that
// generates a valid program whose every value reaches program output.
func TestQuickGenerateAlwaysValidAndClosed(t *testing.T) {
	cfg := uarch.Baseline()
	f := func(loop, loads, stores, indep, missdep uint8, chain float64,
		depdist uint8, long, regreg float64, seed int64, l2hit bool) bool {
		k := Knobs{
			LoopSize: int(loop), NumLoads: int(loads), NumStores: int(stores),
			NumIndepArith: int(indep), MissDependent: int(missdep),
			AvgChainLength: chain, DepDistance: int(depdist),
			FracLongLatency: long, FracRegReg: regreg, Seed: seed, L2Hit: l2hit,
		}
		p, eff, err := Generate(cfg, k, 1000)
		if err != nil {
			return false
		}
		if len(p.Body) != eff.LoopSize {
			return false
		}
		if err := p.Validate(); err != nil {
			return false
		}
		return CheckACEClosure(p) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestGenerateErrorPaths(t *testing.T) {
	cfg := uarch.Baseline()
	if _, _, err := Generate(cfg, baseKnobs(), 0); err == nil {
		t.Error("zero iterations accepted")
	}
	bad := cfg
	bad.Core.ROBEntries = 0
	if _, _, err := Generate(bad, baseKnobs(), 1000); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestKnobsString(t *testing.T) {
	s := baseKnobs().String()
	for _, want := range []string{"Loop Size", "81", "No. of loads", "29",
		"L2 miss", "2.14", "0.93"} {
		if !strings.Contains(s, want) {
			t.Errorf("knob table missing %q:\n%s", want, s)
		}
	}
	h := baseKnobs()
	h.L2Hit = true
	if !strings.Contains(h.String(), "L2 hit") {
		t.Error("L2-hit variant not reflected in the knob table")
	}
}

// TestValidateDetectsUnnormalised: Normalize moves an infeasible knob
// set and leaves its own output unchanged.
func TestValidateDetectsUnnormalised(t *testing.T) {
	cfg := uarch.Baseline()
	k := baseKnobs()
	k.LoopSize = 1000
	n := k.Normalize(cfg)
	if n == k {
		t.Error("unnormalised knobs left unchanged")
	}
	if again := n.Normalize(cfg); again != n {
		t.Errorf("normalised knobs moved again: %+v -> %+v", n, again)
	}
}

func TestCheckACEClosureCatchesDeadCode(t *testing.T) {
	cfg := uarch.Baseline()
	p, _, err := Generate(cfg, baseKnobs(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: turn a store into an immediate add whose value nothing
	// consumes, orphaning its chain.
	for i, in := range p.Body {
		if in.Op == isa.OpStore {
			p.Body[i] = isa.Instr{Op: isa.OpAdd, Dest: 0, Src1: in.Src2, Imm: 1}
			break
		}
	}
	if err := CheckACEClosure(p); err == nil {
		t.Error("sabotaged program passed the ACE closure check")
	}
}

// TestDepDistanceSpacing verifies the scheduler's contract: with a
// dependency distance of D (and no seeded shuffling), consecutive ops of
// one chain sit ~D instructions apart in the body.
func TestDepDistanceSpacing(t *testing.T) {
	cfg := uarch.Baseline()
	measure := func(depDist int) float64 {
		k := baseKnobs()
		k.DepDistance = depDist
		k.Seed = 0 // deterministic lane order: no placement shuffling
		p, _, err := Generate(cfg, k, 1000)
		if err != nil {
			t.Fatal(err)
		}
		// Mean distance between each instruction and its nearest older
		// true-dependence producer within the body.
		lastWriter := map[isa.Reg]int{}
		var sum, n float64
		for i, in := range p.Body {
			var srcs []isa.Reg
			srcs = in.SrcRegs(srcs)
			for _, s := range srcs {
				if s == 1 || s == 2 { // chase/induction: loop-carried
					continue
				}
				if w, ok := lastWriter[s]; ok {
					sum += float64(i - w)
					n++
				}
			}
			if in.Writes() {
				lastWriter[in.Dest] = i
			}
		}
		if n == 0 {
			t.Fatal("no intra-body dependences found")
		}
		return sum / n
	}
	tight := measure(1)
	wide := measure(8)
	if tight >= wide {
		t.Errorf("mean dependence distance should grow with the knob: d1=%.1f d8=%.1f", tight, wide)
	}
	if wide < 3 {
		t.Errorf("dep distance 8 yields mean spacing %.1f, want ≥ 3", wide)
	}
}

// TestFingerprintIsLossless is the regression test for the simcache
// aliasing bug: Fingerprint once rendered the Stringer display table,
// which omits Seed and rounds the float knobs to two decimals, so
// candidates differing only in those fields shared one cache entry.
func TestFingerprintIsLossless(t *testing.T) {
	base := Knobs{LoopSize: 26, NumLoads: 12, NumStores: 12,
		AvgChainLength: 5.398623388174891, DepDistance: 11,
		FracLongLatency: 0.6073972426237857, FracRegReg: 0.8481767696821934,
		Seed: 105}
	mutants := []func(*Knobs){
		func(k *Knobs) { k.Seed = 820 },
		func(k *Knobs) { k.L2Hit = true },
		func(k *Knobs) { k.AvgChainLength += 1e-9 },
		func(k *Knobs) { k.FracLongLatency += 1e-12 },
		func(k *Knobs) { k.FracRegReg = 0.8481767696821935 },
	}
	for i, mutate := range mutants {
		m := base
		mutate(&m)
		if m == base {
			t.Fatalf("mutant %d equals base", i)
		}
		if m.Fingerprint() == base.Fingerprint() {
			t.Errorf("mutant %d aliases the base fingerprint: %s", i, m.Fingerprint())
		}
	}
	if !strings.Contains(base.Fingerprint(), "Seed:105") {
		t.Errorf("fingerprint does not carry the seed: %s", base.Fingerprint())
	}
}
