package inject

import (
	"fmt"
	"testing"

	"avfstress/internal/codegen"
	"avfstress/internal/isa"
	"avfstress/internal/liveness"
	"avfstress/internal/pipe"
	"avfstress/internal/prog"
	"avfstress/internal/uarch"
	"avfstress/internal/workloads"
)

// prunerFixture builds the campaign's static filter exactly as Run
// does: liveness pass, recorded golden run, pruner.
func prunerFixture(t *testing.T, cfg uarch.Config, p *prog.Program, rc pipe.RunConfig) (*pipe.Pool, pipe.GoldenInfo, *pruner) {
	t.Helper()
	pool, err := pipe.NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := liveness.Analyze(p, cfg.Core)
	_, info, _, err := pool.SimulateGoldenRecorded(p, rc, -1, live.DeadDefs)
	if err != nil {
		t.Fatal(err)
	}
	return pool, info, newPruner(true, cfg, live, info)
}

// enumeratePruned walks the pruner's dead set directly — every capped
// entry, every never-popped register slot and every recorded dead
// interval — and returns up to perStructure targets per structure,
// strided over bit offsets and cycles. Every returned target is
// re-checked against pruned() so the enumeration cannot drift from the
// filter the campaign actually applies.
func enumeratePruned(t *testing.T, pr *pruner, cfg uarch.Config, info pipe.GoldenInfo, perStructure int) []pipe.Fault {
	t.Helper()
	var out []pipe.Fault
	wStart, wEnd := info.WindowStart, info.WindowStart+info.Cycles
	cycles := []int64{wStart, wStart + info.Cycles/3, wStart + 2*info.Cycles/3, wEnd - 1}
	add := func(f pipe.Fault, n *int) {
		if *n >= perStructure {
			return
		}
		if !pr.pruned(f) {
			t.Fatalf("enumerated target %+v not classified pruned", f)
		}
		out = append(out, f)
		*n++
	}
	for s := uarch.Structure(0); s < uarch.NumStructures; s++ {
		n := 0
		if s == uarch.RF {
			eb := pr.entryBits[uarch.RF]
			for slot, static := range pr.rfStatic {
				if !static {
					continue
				}
				for _, c := range cycles {
					for _, off := range []uint64{0, eb - 1} {
						add(pipe.Fault{Structure: s, Bit: uint64(slot)*eb + off, Cycle: c}, &n)
					}
				}
			}
			for slot, ivs := range pr.rfIv {
				for _, iv := range ivs {
					for _, c := range []int64{iv.start, (iv.start + iv.end) / 2, iv.end - 1} {
						for _, off := range []uint64{0, eb - 1} {
							add(pipe.Fault{Structure: s, Bit: uint64(slot)*eb + off, Cycle: c}, &n)
						}
					}
				}
			}
			continue
		}
		cap := pr.entryCap[s]
		if cap < 0 {
			continue
		}
		eb := pr.entryBits[s]
		entries := int64(uarch.Bits(cfg, s) / eb)
		for e := cap; e < entries; e++ {
			for _, c := range cycles {
				for _, off := range []uint64{0, eb - 1} {
					add(pipe.Fault{Structure: s, Bit: uint64(e)*eb + off, Cycle: c}, &n)
				}
			}
		}
	}
	return out
}

// replayAllMasked replays every target and fails on any non-masked
// outcome: a statically pruned target that corrupts architectural state
// is an unsoundness in the liveness pass, the recording, or the pruner.
func replayAllMasked(t *testing.T, pool *pipe.Pool, p *prog.Program, rc pipe.RunConfig, faults []pipe.Fault) {
	t.Helper()
	for _, f := range faults {
		trial, err := pool.SimulateFaultDetail(p, rc, f)
		if err != nil {
			t.Fatalf("replaying pruned target %+v: %v", f, err)
		}
		if trial.Corrupted {
			t.Errorf("statically pruned target %+v corrupted the run (unsound prune)", f)
		}
	}
}

// TestStaticLivenessSoundAgainstReplay is the differential soundness
// contract of DESIGN.md §12: every target the static filter prunes
// must classify masked under the replay fault model. Part one
// enumerates the dead set of a small hand-built program with a known
// dead definition and a queue-free body (so whole queues are capped)
// and replays it densely; part two fuzzes generated programs across
// seeds, replaying a bounded sample of each one's pruned set.
func TestStaticLivenessSoundAgainstReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("replay sweep in -short mode")
	}
	cfg := uarch.Scaled(uarch.Baseline(), 32)

	// Hand-built: r5 is written every iteration and never read (its
	// redefinition reads only r1), so its physical slots carry recorded
	// dead intervals; no loads or stores, so both LSQ halves are capped
	// at zero occupants and every LSQ bit-cycle is statically dead.
	var init []isa.Instr
	for r := isa.Reg(0); r < isa.NumArchRegs-1; r++ {
		init = append(init, isa.Instr{Op: isa.OpAdd, Dest: r, Src1: isa.RZero, Imm: int16(r)})
	}
	body := []isa.Instr{
		{Op: isa.OpAdd, Dest: 5, Src1: 1, Imm: 1},
		{Op: isa.OpAdd, Dest: 6, Src1: 2, Imm: 3},
		{Op: isa.OpMul, Dest: 7, Src1: 6, Src2: 2, RegReg: true},
		{Op: isa.OpAdd, Dest: 8, Src1: 7, Imm: 1},
		{Op: isa.OpBranch, Dest: isa.RZero, Src1: 2, BrGen: 0},
	}
	small := &prog.Program{
		Name: "deaddef", Init: init, Body: body,
		BrGens:     []prog.BranchGen{prog.LoopBranch{Iterations: 1 << 40}},
		Iterations: 1 << 40,
	}
	rc := pipe.RunConfig{MaxInstructions: 2_000, WarmupInstructions: 500}
	pool, info, pr := prunerFixture(t, cfg, small, rc)
	if pr.prunedBC[uarch.RF] == 0 {
		t.Fatal("dead-definition program recorded no RF dead interval")
	}
	if pr.entryCap[uarch.LQTag] != 0 || pr.entryCap[uarch.SQData] != 0 {
		t.Fatalf("load/store-free body not capped at zero LSQ occupants (LQ.tag cap %d, SQ.data cap %d)",
			pr.entryCap[uarch.LQTag], pr.entryCap[uarch.SQData])
	}
	replayAllMasked(t, pool, small, rc, enumeratePruned(t, pr, cfg, info, 64))

	// Fuzz: generated programs across seeds. Each seed's pruner is
	// rebuilt from scratch; its pruned set is sampled through the same
	// splitmix64 stream the campaign uses, so the sweep sees the exact
	// target distribution campaigns prune.
	for _, seed := range []int64{1, 2, 3, 4, 5, 77} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			k := codegen.Knobs{LoopSize: 81, NumLoads: 29, NumStores: 28,
				NumIndepArith: 5, MissDependent: 7, AvgChainLength: 2.14,
				DepDistance: 6, FracLongLatency: 0.8, FracRegReg: 0.93, Seed: seed}
			p, _, err := codegen.Generate(cfg, k, 1<<40)
			if err != nil {
				t.Fatal(err)
			}
			frc := pipe.RunConfig{MaxInstructions: 3_000, WarmupInstructions: 1_000}
			pool, info, pr := prunerFixture(t, cfg, p, frc)
			var sample []pipe.Fault
			for s := uarch.Structure(0); s < uarch.NumStructures; s++ {
				r := stratumRNG(seed, s)
				bits := uarch.Bits(cfg, s)
				found := 0
				for att := 0; att < 4_000 && found < 8; att++ {
					f := pipe.Fault{
						Structure: s,
						Bit:       r.next() % bits,
						Cycle:     info.WindowStart + int64(r.next()%uint64(info.Cycles)),
					}
					if pr.pruned(f) {
						sample = append(sample, f)
						found++
					}
				}
			}
			if len(sample) == 0 {
				t.Fatalf("seed %d: sampling found no pruned targets", seed)
			}
			replayAllMasked(t, pool, p, frc, sample)
		})
	}
}

// TestCampaignPrunesRFTargets is the acceptance yield check: on the
// 403.gcc proxy — whose profile initialises the full architected
// register pool but reads only a fraction of it per loop — the static
// pass must prune at least 10% of the register-file bit-cycle space,
// and every structure's tightened static bound must sit between its
// dynamic ACE estimate and the trivial all-bits bound.
func TestCampaignPrunesRFTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	pf, err := workloads.ByName("403.gcc")
	if err != nil {
		t.Fatal(err)
	}
	p, err := pf.Build(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(bg, Options{
		Config: cfg, Program: p,
		Run:    pipe.RunConfig{MaxInstructions: 6_000, WarmupInstructions: 2_000},
		Trials: 400, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res.Structures {
		if sr.StaticBound > 1+1e-12 || sr.StaticBound < 0 {
			t.Errorf("%s: static bound %.6f outside [0, 1]", sr.Structure, sr.StaticBound)
		}
		if sr.StaticBound < sr.ACE-1e-9 {
			t.Errorf("%s: static bound %.6f below dynamic ACE %.6f (bound unsound)",
				sr.Structure, sr.StaticBound, sr.ACE)
		}
		if sr.Structure == uarch.RF {
			if sr.PruneFrac < 0.10 {
				t.Errorf("RF prune fraction %.4f, want >= 0.10 on the 403.gcc proxy", sr.PruneFrac)
			}
			if sr.Pruned == 0 {
				t.Error("RF stratum pruned no sampled targets")
			}
		}
	}
	if res.StaticBound >= 1 {
		t.Errorf("bit-weighted static bound %.6f not tightened below 1", res.StaticBound)
	}
}

// TestCampaignPrunedByteDeterministic: a pruned campaign renders
// byte-identically across equivalent positive knob values (every
// PruneStatic ≥ 0 is the same filter).
func TestCampaignPrunedByteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	o := testOptions(t, 200)
	o.PruneStatic = 0
	base, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	if base.Pruned == 0 {
		t.Fatal("pruned campaign pruned no targets (nothing exercised)")
	}
	o.PruneStatic = 5
	got, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != base.String() {
		t.Errorf("pruned campaign differs across knob values:\n%s\nvs\n%s", got, base)
	}
}

// TestPrunedPhase1MatchesBaseline: pruning changes which targets
// replay, never a replay's outcome. A pruned campaign's first sampling
// phase draws the unpruned campaign's targets, so each stratum's
// baseline SDC, detected and masked counts must equal the pruned
// campaign's phase-1 counts, with the pruned targets counted masked.
func TestPrunedPhase1MatchesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	for _, rates := range []uarch.FaultRates{uarch.UniformRates(1), uarch.EDRRates()} {
		o := testOptions(t, 300)
		o.Rates = rates
		o.PruneStatic = -1
		base, err := Run(bg, o)
		if err != nil {
			t.Fatal(err)
		}
		o.PruneStatic = 0
		pruned, err := Run(bg, o)
		if err != nil {
			t.Fatal(err)
		}
		if pruned.Pruned == 0 {
			t.Fatal("pruned campaign pruned no targets (nothing exercised)")
		}
		for i, bs := range base.Structures {
			ps := pruned.Structures[i]
			if bs.SDC != ps.Phase1SDC || bs.Detected != ps.Phase1Detected ||
				bs.Masked != ps.Phase1Masked+ps.Pruned {
				t.Errorf("%s: baseline outcomes %d/%d/%d != pruned phase-1 %d/%d/%d+%d",
					bs.Structure, bs.SDC, bs.Detected, bs.Masked,
					ps.Phase1SDC, ps.Phase1Detected, ps.Phase1Masked, ps.Pruned)
			}
		}
	}
}
