package inject

// Differential soundness tests for root-cause attribution (DESIGN.md
// §14): the replay engine's first-divergent-commit record and the static
// def-use walk in internal/rootcause are verified against the dynamic
// instruction stream itself. For every corrupting trial, the consumer
// named by the Diverge record must be the real dynamic instruction at
// that stream sequence, and the attributed root-cause instruction must
// lie on the dynamic def-use path into that commit — the consumer, or
// the dynamic last writer of the operand the flipped bit flowed through.
// The static walk (liveness.LastWriter over init·body^ω) and the
// dynamic reference are independent implementations, so agreement here
// is the attribution soundness contract, mirroring the statically-
// dead-must-replay-masked contract of the pruning tests.

import (
	"fmt"
	"testing"

	"avfstress/internal/codegen"
	"avfstress/internal/isa"
	"avfstress/internal/pipe"
	"avfstress/internal/prog"
	"avfstress/internal/rootcause"
	"avfstress/internal/uarch"
)

// memStructure reports whether s is a memory-hierarchy fate watch,
// which exposes no consuming-instruction identity.
func memStructure(s uarch.Structure) bool {
	return s == uarch.DL1 || s == uarch.DTLB || s == uarch.L2
}

// verifyTrialAttribution checks one corrupted trial against the dynamic
// stream and returns whether an attribution was actually verified.
func verifyTrialAttribution(t *testing.T, p *prog.Program, f pipe.Fault, d pipe.Diverge) bool {
	t.Helper()
	if memStructure(f.Structure) {
		if d.Seq >= 0 {
			t.Errorf("%v: memory-hierarchy trial claims a consuming instruction: %+v", f, d)
		}
		return false
	}
	if d.Seq < 0 {
		// Core-structure corruption without a consumer: only legal for a
		// register-file watch resolved by overwrite/pop bookkeeping — the
		// queues always know their occupant.
		if f.Structure != uarch.RF {
			t.Errorf("%v: corrupted core-structure trial without a consumer", f)
		}
		return false
	}
	c, ok := rootcause.Attribute(p, f, d)
	if !ok {
		t.Errorf("%v: corrupted trial with consumer %+v failed to attribute", f, d)
		return false
	}

	// Dynamic reference: walk the committed stream up to the diverge
	// sequence, tracking every architected register's last dynamic
	// writer.
	lastW := map[isa.Reg]uint64{}
	s := prog.NewStream(p)
	var cons prog.Dyn
	found := false
	for {
		var dyn prog.Dyn
		if !s.NextInto(&dyn) || dyn.Seq > d.Seq {
			break
		}
		if dyn.Seq == d.Seq {
			cons, found = dyn, true
			break
		}
		if isa.WritesDest(dyn.Static) {
			lastW[dyn.Static.Dest] = dyn.PC
		}
	}
	if !found {
		t.Errorf("%v: diverge seq %d beyond the dynamic stream", f, d.Seq)
		return false
	}
	if cons.PC != d.PC || cons.Static.Op != d.Op {
		t.Errorf("%v: diverge names %05x %v, stream seq %d is %05x %v",
			f, d.PC, d.Op, d.Seq, cons.PC, cons.Static.Op)
		return false
	}

	// Which operand did the flipped value flow through? Queue-structure
	// flips corrupt the consumer's own in-flight state; RF and LSQ
	// operand flips corrupt a register value, whose dynamic last writer
	// is the true producer.
	var reg isa.Reg
	self := false
	switch f.Structure {
	case uarch.RF:
		if d.SrcSlot < 0 {
			t.Errorf("%v: RF consumer without a source slot: %+v", f, d)
			return false
		}
		reg = isa.SrcRegAt(cons.Static, int(d.SrcSlot))
	case uarch.LQTag, uarch.SQTag:
		reg = cons.Static.Src1
	case uarch.SQData:
		reg = cons.Static.Src2
	default:
		self = true
	}
	want := cons.PC
	if !self && reg != isa.RZero {
		if pc, ok := lastW[reg]; ok {
			want = pc
		}
	}
	if c.PC != want {
		t.Errorf("%v consumer %05x %v slot %d: attributed %05x %v, dynamic def-use path expects %05x",
			f, d.PC, d.Op, d.SrcSlot, c.PC, c.Op, want)
		return false
	}
	return true
}

// sweepAttributions samples each structure's bit-cycle space through the
// campaign's own splitmix64 streams, replays every sampled target, and
// verifies the attribution of each corrupting trial. Returns the number
// of verified attributions.
func sweepAttributions(t *testing.T, pool *pipe.Pool, p *prog.Program, rc pipe.RunConfig, cfg uarch.Config, seed int64, perStructure int) int {
	t.Helper()
	info, err := goldenWindow(pool, p, rc)
	if err != nil {
		t.Fatal(err)
	}
	verified := 0
	for s := uarch.Structure(0); s < uarch.NumStructures; s++ {
		r := stratumRNG(seed, s)
		bits := uarch.Bits(cfg, s)
		checked := 0
		for att := 0; att < 64*perStructure && checked < perStructure; att++ {
			f := pipe.Fault{
				Structure: s,
				Bit:       r.next() % bits,
				Cycle:     info.WindowStart + int64(r.next()%uint64(info.Cycles)),
			}
			trial, err := pool.SimulateFaultDetail(p, rc, f)
			if err != nil {
				t.Fatalf("%v: %v", f, err)
			}
			if !trial.Corrupted {
				if trial.Diverge.Seq >= 0 {
					t.Errorf("%v: masked trial claims a consumer: %+v", f, trial.Diverge)
				}
				continue
			}
			checked++
			if verifyTrialAttribution(t, p, f, trial.Diverge) {
				verified++
			}
		}
	}
	return verified
}

// goldenWindow runs the golden simulation once to learn the sampled
// cycle window.
func goldenWindow(pool *pipe.Pool, p *prog.Program, rc pipe.RunConfig) (pipe.GoldenInfo, error) {
	_, info, _, err := pool.SimulateGoldenRecorded(p, rc, -1, nil)
	return info, err
}

// TestRootCauseSoundAgainstReplay is the attribution soundness contract:
// part one drives a hand-built program whose def-use chains are fully
// known (every structure class exercised — arith chain, load, store,
// branch), part two fuzzes generated programs across seeds. In both,
// every corrupting trial's attributed instruction must lie on the
// dynamic def-use path into the first divergent commit.
func TestRootCauseSoundAgainstReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("replay sweep in -short mode")
	}
	cfg := uarch.Scaled(uarch.Baseline(), 32)

	// Hand-built: add feeds mul and both memory ops' base, mul feeds the
	// store's data, the load feeds a dependent add and the branch — every
	// attribution case (RF slots 0/1, LQ/SQ tag and data, queue
	// self-attribution, init-block producers after loop wrap) is
	// reachable.
	var init []isa.Instr
	for r := isa.Reg(0); r < isa.NumArchRegs-1; r++ {
		init = append(init, isa.Instr{Op: isa.OpAdd, Dest: r, Src1: isa.RZero, Imm: int16(r)})
	}
	body := []isa.Instr{
		{Op: isa.OpAdd, Dest: 6, Src1: 2, Imm: 3},
		{Op: isa.OpMul, Dest: 7, Src1: 6, Src2: 2, RegReg: true},
		{Op: isa.OpLoad, Dest: 8, Src1: 6, AddrGen: 0},
		{Op: isa.OpStore, Dest: isa.RZero, Src1: 6, Src2: 7, AddrGen: 1},
		{Op: isa.OpAdd, Dest: 9, Src1: 8, Imm: 1},
		{Op: isa.OpBranch, Dest: isa.RZero, Src1: 9, BrGen: 0},
	}
	small := &prog.Program{
		Name: "rootchain", Init: init, Body: body,
		AddrGens: []prog.AddrGen{
			prog.PointerChase{Base: 0x1_0000, Stride: 64, Region: 1 << 12},
			prog.PointerChase{Base: 0x8_0000, Stride: 64, Region: 1 << 12},
		},
		BrGens:     []prog.BranchGen{prog.LoopBranch{Iterations: 1 << 40}},
		Iterations: 1 << 40,
	}
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	pool, err := pipe.NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc := pipe.RunConfig{MaxInstructions: 2_000, WarmupInstructions: 500}
	if n := sweepAttributions(t, pool, small, rc, cfg, 1, 12); n < 20 {
		t.Errorf("hand-built program verified only %d attributions, want >= 20", n)
	}

	// Fuzz: generated programs across seeds, each with its own pool and
	// golden window, sampled through the campaign's own streams.
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
			if n := sweepAttributions(t, pool, p, frc, cfg, seed, 6); n < 10 {
				t.Errorf("seed %d verified only %d attributions, want >= 10", seed, n)
			}
		})
	}
}
