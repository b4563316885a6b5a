package pipe

import (
	"math"
	"strings"
	"testing"

	"avfstress/internal/avf"
	"avfstress/internal/isa"
	"avfstress/internal/prog"
	"avfstress/internal/uarch"
)

// testCfg is a scaled baseline used by the behavioural tests.
func testCfg() uarch.Config { return uarch.Scaled(uarch.Baseline(), 32) }

// initAll writes every architected register once.
func initAll() []isa.Instr {
	var ins []isa.Instr
	for r := isa.Reg(0); r < isa.NumArchRegs-1; r++ {
		ins = append(ins, isa.Instr{Op: isa.OpAdd, Dest: r, Src1: isa.RZero, Imm: int16(r)})
	}
	return ins
}

// loopOf wraps a body with the standard backedge.
func loopOf(body []isa.Instr, gens []prog.AddrGen) *prog.Program {
	body = append(body, isa.Instr{Op: isa.OpBranch, Dest: isa.RZero, Src1: 2, BrGen: 0})
	return &prog.Program{
		Name:       "unit",
		Init:       initAll(),
		Body:       body,
		AddrGens:   gens,
		BrGens:     []prog.BranchGen{prog.LoopBranch{Iterations: 1 << 40}},
		Iterations: 1 << 40,
	}
}

func mustRun(t *testing.T, cfg uarch.Config, p *prog.Program, rc RunConfig) *avf.Result {
	t.Helper()
	res, err := Simulate(cfg, p, rc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestIndependentAddsReachIssueWidth: a body of independent adds should
// sustain an IPC near the 4-wide issue/commit limit.
func TestIndependentAddsReachIssueWidth(t *testing.T) {
	var body []isa.Instr
	for i := 0; i < 16; i++ {
		body = append(body, isa.Instr{Op: isa.OpAdd, Dest: isa.Reg(3 + i), Src1: 2, Imm: 1})
	}
	res := mustRun(t, testCfg(), loopOf(body, nil), RunConfig{MaxInstructions: 40_000})
	if res.IPC < 3.0 {
		t.Errorf("independent adds IPC = %.2f, want near 4", res.IPC)
	}
}

// TestSerialChainLimitsIPC: a fully serial add chain cannot exceed 1 IPC
// (plus the backedge), demonstrating dependence-controlled ILP.
func TestSerialChainLimitsIPC(t *testing.T) {
	var body []isa.Instr
	for i := 0; i < 16; i++ {
		body = append(body, isa.Instr{Op: isa.OpAdd, Dest: 3, Src1: 3, Imm: 1})
	}
	res := mustRun(t, testCfg(), loopOf(body, nil), RunConfig{MaxInstructions: 40_000})
	if res.IPC > 1.3 {
		t.Errorf("serial chain IPC = %.2f, should be near 1", res.IPC)
	}
}

// TestMultiplierStructuralHazard: serial-independent MULs through the
// single 7-cycle multiplier sustain at most 1 mul/cycle; with a 7-cycle
// latency chain they crawl.
func TestMultiplierStructuralHazard(t *testing.T) {
	var body []isa.Instr
	for i := 0; i < 8; i++ {
		body = append(body, isa.Instr{Op: isa.OpMul, Dest: isa.Reg(3 + i), Src1: 2, Imm: 1})
	}
	res := mustRun(t, testCfg(), loopOf(body, nil), RunConfig{MaxInstructions: 20_000})
	// 8 independent muls + branch per iteration, 1 mul issue/cycle →
	// IPC caps near 9/8.
	if res.IPC > 1.4 {
		t.Errorf("mul-bound IPC = %.2f, want ≤ ~1.1", res.IPC)
	}
}

// TestMemIssueLimit: independent DL1-hitting loads are capped at 2
// memory issues per cycle (the 21264 restriction the paper leans on).
func TestMemIssueLimit(t *testing.T) {
	gens := []prog.AddrGen{prog.Fixed{Address: 0x4000_0000}}
	var body []isa.Instr
	for i := 0; i < 12; i++ {
		body = append(body, isa.Instr{Op: isa.OpLoad, Dest: isa.Reg(3 + i), Src1: 2, AddrGen: 0})
	}
	res := mustRun(t, testCfg(), loopOf(body, gens), RunConfig{MaxInstructions: 26_000})
	// 13 instructions per iteration, ≥6 cycles of load issue → IPC ≤ ~2.2.
	if res.IPC > 2.4 {
		t.Errorf("load-bound IPC = %.2f exceeds the 2-mem/cycle limit", res.IPC)
	}
}

// TestROBFillsInMissShadow: a self-dependent chasing load pins the ROB
// near full occupancy — the paper's central mechanism.
func TestROBFillsInMissShadow(t *testing.T) {
	cfg := testCfg()
	region := uint64(4 * cfg.Mem.L2.SizeBytes)
	gens := []prog.AddrGen{prog.PointerChase{Base: 0x4000_0000, Stride: 64, Region: region}}
	body := []isa.Instr{{Op: isa.OpLoad, Dest: 1, Src1: 1, AddrGen: 0}}
	// Balance register writers against the ~49 free rename registers
	// (§III: rename registers bound in-flight occupancy — the very reason
	// the paper's GA picks store-heavy loops): 25 adds + 25 stores.
	for i := 0; i < 25; i++ {
		body = append(body, isa.Instr{Op: isa.OpAdd, Dest: 3, Src1: 2, Imm: 1})
		body = append(body, isa.Instr{Op: isa.OpStore, Dest: isa.RZero, Src1: 2, Src2: 3, AddrGen: 0})
	}
	body = append(body, isa.Instr{Op: isa.OpStore, Dest: isa.RZero, Src1: 2, Src2: 1, AddrGen: 0})
	res := mustRun(t, cfg, loopOf(body, gens), RunConfig{
		MaxInstructions: 60_000, WarmupInstructions: 10_000,
	})
	if res.OccupancyROB < 0.7 {
		t.Errorf("ROB occupancy %.2f in permanent miss shadow, want ≥ 0.7", res.OccupancyROB)
	}
	// The chase misses L2 every iteration; dirty writebacks into L2 count
	// as (hit) accesses, diluting the measured rate below 1.
	if res.L2MissRate < 0.3 {
		t.Errorf("chase L2 miss rate %.2f, want ≥ 0.3", res.L2MissRate)
	}
	if res.IPC > 1 {
		t.Errorf("memory-bound IPC %.2f suspiciously high", res.IPC)
	}
}

// TestMispredictionsReduceAVF: adding hard-to-predict branches must
// produce wrong-path fetch and reduce core AVF versus the same program
// with predictable branches (§IV-A.4).
func TestMispredictionsReduceAVF(t *testing.T) {
	cfg := testCfg()
	mk := func(hard bool) *avf.Result {
		var brs []prog.BranchGen
		brs = append(brs, prog.LoopBranch{Iterations: 1 << 40})
		// One independent generator per branch: a shared sequence would
		// correlate the branches through global history and the predictor
		// would (correctly!) learn them.
		var body []isa.Instr
		for i := 0; i < 6; i++ {
			if hard {
				brs = append(brs, prog.Bernoulli{Seed: uint64(11 + i*7), P: 0.5})
			} else {
				brs = append(brs, prog.Periodic{Period: 8, Duty: 4, Phase: int64(i)})
			}
			body = append(body, isa.Instr{Op: isa.OpMul, Dest: 3, Src1: 3, Imm: 1})
			body = append(body, isa.Instr{Op: isa.OpBranch, Dest: isa.RZero, Src1: 3, BrGen: i + 1})
		}
		body = append(body, isa.Instr{Op: isa.OpStore, Dest: isa.RZero, Src1: 2, Src2: 3, AddrGen: 0})
		body = append(body, isa.Instr{Op: isa.OpBranch, Dest: isa.RZero, Src1: 2, BrGen: 0})
		p := &prog.Program{
			Name: "br", Init: initAll(), Body: body,
			AddrGens:   []prog.AddrGen{prog.Fixed{Address: 0x4000_0000}},
			BrGens:     brs,
			Iterations: 1 << 40,
		}
		res, err := Simulate(cfg, p, RunConfig{MaxInstructions: 40_000, WarmupInstructions: 5_000})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	easy, hard := mk(false), mk(true)
	if hard.MispredictRate < 0.1 {
		t.Fatalf("bernoulli(0.5) branches mispredict at only %.3f", hard.MispredictRate)
	}
	if easy.MispredictRate > 0.05 {
		t.Fatalf("periodic branches mispredict at %.3f", easy.MispredictRate)
	}
	if hard.WrongPathFrac == 0 {
		t.Error("mispredictions produced no wrong-path fetch")
	}
	if hard.AVF[uarch.ROB] >= easy.AVF[uarch.ROB] {
		t.Errorf("mispredictions should reduce ROB AVF: easy %.3f hard %.3f",
			easy.AVF[uarch.ROB], hard.AVF[uarch.ROB])
	}
}

// TestStoreLoadForwarding: a load of a just-stored double-word gets its
// data without a cache round trip, and is blocked until the store
// executes.
func TestStoreLoadForwarding(t *testing.T) {
	gens := []prog.AddrGen{prog.Fixed{Address: 0x4000_0040}}
	body := []isa.Instr{
		{Op: isa.OpMul, Dest: 3, Src1: 3, Imm: 1}, // slow producer
		{Op: isa.OpStore, Dest: isa.RZero, Src1: 2, Src2: 3, AddrGen: 0},
		{Op: isa.OpLoad, Dest: 4, Src1: 2, AddrGen: 0},
		{Op: isa.OpStore, Dest: isa.RZero, Src1: 2, Src2: 4, AddrGen: 0},
	}
	res := mustRun(t, testCfg(), loopOf(body, gens), RunConfig{MaxInstructions: 20_000})
	// Forwarding works if the loop sustains steady progress (no deadlock)
	// and the load's data shows up: DL1 read traffic comes only from the
	// loads that were *not* forwarded; with same-dword forwarding every
	// iteration, DL1 sees only store commits.
	if res.IPC <= 0 {
		t.Fatal("no progress")
	}
	if res.DL1MissRate > 0.01 {
		t.Errorf("forwarded loop misses DL1 at %.3f", res.DL1MissRate)
	}
}

// TestNopsAreUnACE: a NOP-heavy loop commits NOPs but accrues almost no
// core ACE (paper: NOPs are un-ACE by definition).
func TestNopsAreUnACE(t *testing.T) {
	var body []isa.Instr
	for i := 0; i < 20; i++ {
		body = append(body, isa.Instr{Op: isa.OpNop, Dest: isa.RZero})
	}
	res := mustRun(t, testCfg(), loopOf(body, nil), RunConfig{MaxInstructions: 30_000})
	if res.ACEInstrFrac > 0.1 {
		t.Errorf("NOP loop ACE fraction %.3f", res.ACEInstrFrac)
	}
	if res.AVF[uarch.ROB] > 0.05 {
		t.Errorf("NOP loop ROB AVF %.3f, want ~0", res.AVF[uarch.ROB])
	}
	if res.OccupancyROB < 0.1 {
		t.Errorf("NOPs still occupy the ROB; occupancy %.3f", res.OccupancyROB)
	}
}

// TestUnACEMarkedInstructionsExcluded: statically dead instructions
// occupy resources but contribute no ACE.
func TestUnACEMarkedInstructionsExcluded(t *testing.T) {
	mk := func(dead bool) *avf.Result {
		var body []isa.Instr
		for i := 0; i < 16; i++ {
			body = append(body, isa.Instr{
				Op: isa.OpAdd, Dest: isa.Reg(3 + i%8), Src1: 2, Imm: 1, UnACE: dead,
			})
		}
		return mustRun(t, testCfg(), loopOf(body, nil), RunConfig{MaxInstructions: 30_000})
	}
	live, dead := mk(false), mk(true)
	if dead.AVF[uarch.ROB] >= live.AVF[uarch.ROB]/2 {
		t.Errorf("dead code ROB AVF %.3f vs live %.3f", dead.AVF[uarch.ROB], live.AVF[uarch.ROB])
	}
	if math.Abs(dead.OccupancyROB-live.OccupancyROB) > 0.1 {
		t.Errorf("occupancy should match: dead %.3f live %.3f", dead.OccupancyROB, live.OccupancyROB)
	}
}

// TestPersistentRegisterACE: a register written once and read every
// iteration stays ACE, raising RF AVF (the register-usage mechanism).
func TestPersistentRegisterACE(t *testing.T) {
	mk := func(readPersistent bool) *avf.Result {
		src2 := isa.Reg(10) // written only in init
		if !readPersistent {
			src2 = 3 // rewritten constantly
		}
		var body []isa.Instr
		for i := 0; i < 8; i++ {
			body = append(body, isa.Instr{Op: isa.OpAdd, Dest: 3, Src1: 2, Src2: src2, RegReg: true})
		}
		body = append(body, isa.Instr{Op: isa.OpStore, Dest: isa.RZero, Src1: 2, Src2: 3, AddrGen: 0})
		return mustRun(t, testCfg(), loopOf(body, []prog.AddrGen{prog.Fixed{Address: 0x4000_0000}}),
			RunConfig{MaxInstructions: 30_000, WarmupInstructions: 5_000})
	}
	with, without := mk(true), mk(false)
	if with.AVF[uarch.RF] <= without.AVF[uarch.RF] {
		t.Errorf("persistent-register reads should raise RF AVF: with %.4f without %.4f",
			with.AVF[uarch.RF], without.AVF[uarch.RF])
	}
}

// TestDeterminism: identical runs produce identical results.
func TestDeterminism(t *testing.T) {
	mk := func() *avf.Result {
		gens := []prog.AddrGen{prog.RandomWalk{Base: 0x4000_0000, Region: 1 << 16, Seed: 3}}
		body := []isa.Instr{
			{Op: isa.OpLoad, Dest: 3, Src1: 2, AddrGen: 0},
			{Op: isa.OpAdd, Dest: 4, Src1: 3, Imm: 1},
			{Op: isa.OpStore, Dest: isa.RZero, Src1: 2, Src2: 4, AddrGen: 0},
		}
		return mustRun(t, testCfg(), loopOf(body, gens), RunConfig{MaxInstructions: 30_000})
	}
	a, b := mk(), mk()
	if *a != *b {
		t.Errorf("two identical runs diverged:\n%v\n%v", a, b)
	}
}

// TestWindowInsensitivity: for a steady-state loop, doubling the
// measured window moves class SERs only marginally — the property that
// justifies sub-100M-instruction runs (DESIGN.md §4).
func TestWindowInsensitivity(t *testing.T) {
	cfg := testCfg()
	gens := []prog.AddrGen{
		prog.PointerChase{Base: 0x4000_0000, Stride: 64, Region: uint64(2 * cfg.Mem.L2.SizeBytes)},
	}
	body := []isa.Instr{
		{Op: isa.OpLoad, Dest: 1, Src1: 1, AddrGen: 0},
		{Op: isa.OpLoad, Dest: 3, Src1: 2, AddrGen: 0},
		{Op: isa.OpAdd, Dest: 4, Src1: 3, Imm: 1},
		{Op: isa.OpStore, Dest: isa.RZero, Src1: 2, Src2: 4, AddrGen: 0},
		{Op: isa.OpStore, Dest: isa.RZero, Src1: 2, Src2: 1, AddrGen: 0},
	}
	short := mustRun(t, cfg, loopOf(body, gens), RunConfig{MaxInstructions: 120_000, WarmupInstructions: 60_000})
	long := mustRun(t, cfg, loopOf(body, gens), RunConfig{MaxInstructions: 180_000, WarmupInstructions: 60_000})
	rates := uarch.UniformRates(1)
	for _, cl := range avf.AllClasses() {
		s, l := short.SER(cfg, rates, cl), long.SER(cfg, rates, cl)
		if math.Abs(s-l) > 0.08 {
			t.Errorf("%v SER moved from %.3f to %.3f when doubling the window", cl, s, l)
		}
	}
}

// TestErrorPaths covers the run-budget failure modes.
func TestErrorPaths(t *testing.T) {
	body := []isa.Instr{{Op: isa.OpAdd, Dest: 3, Src1: 2, Imm: 1}}
	p := loopOf(body, nil)

	if _, err := Simulate(testCfg(), p, RunConfig{MaxInstructions: 100, WarmupInstructions: 100}); err == nil {
		t.Error("warmup ≥ budget accepted")
	}
	pl, err := New(testCfg(), p)
	if err != nil {
		t.Fatal(err)
	}
	pl.startMeasurement()
	if err := pl.runCycles(runBudget{maxInstrs: 10_000, maxCycles: 50}); err == nil {
		t.Error("cycle budget exhaustion not reported")
	} else if !strings.Contains(err.Error(), "cycle budget") {
		t.Errorf("wrong error: %v", err)
	}

	bad := testCfg()
	bad.Core.IQEntries = 0
	if _, err := Simulate(bad, p, RunConfig{MaxInstructions: 1000}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := Simulate(testCfg(), &prog.Program{Name: "empty"}, RunConfig{}); err == nil {
		t.Error("invalid program accepted")
	}
}

// TestProgramRunsToCompletion: a finite program ends cleanly before the
// budget and reports only its committed instructions.
func TestProgramRunsToCompletion(t *testing.T) {
	body := []isa.Instr{
		{Op: isa.OpAdd, Dest: 3, Src1: 2, Imm: 1},
		{Op: isa.OpBranch, Dest: isa.RZero, Src1: 2, BrGen: 0},
	}
	p := &prog.Program{
		Name: "finite", Init: initAll(), Body: body,
		BrGens:     []prog.BranchGen{prog.LoopBranch{Iterations: 50}},
		Iterations: 50,
	}
	res := mustRun(t, testCfg(), p, RunConfig{MaxInstructions: 100_000})
	want := int64(len(initAll()) + 50*2)
	if res.Instructions != want {
		t.Errorf("committed %d instructions, want %d", res.Instructions, want)
	}
}

// TestAVFsWithinBounds: every reported AVF lies in [0, 1] for a mixed
// program.
func TestAVFsWithinBounds(t *testing.T) {
	cfg := testCfg()
	gens := []prog.AddrGen{
		prog.PointerChase{Base: 0x4000_0000, Stride: 64, Region: uint64(2 * cfg.Mem.L2.SizeBytes)},
		prog.RandomWalk{Base: 0x4000_0000, Region: 1 << 16, Seed: 5},
	}
	body := []isa.Instr{
		{Op: isa.OpLoad, Dest: 1, Src1: 1, AddrGen: 0},
		{Op: isa.OpLoad, Dest: 3, Src1: 2, AddrGen: 1},
		{Op: isa.OpMul, Dest: 4, Src1: 3, Imm: 3},
		{Op: isa.OpAdd, Dest: 5, Src1: 4, Src2: 10, RegReg: true},
		{Op: isa.OpStore, Dest: isa.RZero, Src1: 2, Src2: 5, AddrGen: 1},
		{Op: isa.OpStore, Dest: isa.RZero, Src1: 2, Src2: 1, AddrGen: 1},
	}
	res := mustRun(t, cfg, loopOf(body, gens), RunConfig{MaxInstructions: 50_000, WarmupInstructions: 10_000})
	for s := uarch.Structure(0); s < uarch.NumStructures; s++ {
		if res.AVF[s] < 0 || res.AVF[s] > 1 {
			t.Errorf("AVF[%v] = %f out of bounds", s, res.AVF[s])
		}
	}
	if res.IPC <= 0 {
		t.Error("IPC must be positive")
	}
}

// TestIQFreedAtIssue: issue-queue entries are released at issue
// (21264-style), so in a miss shadow the IQ occupancy stays well below
// the ROB occupancy — the property that lets the paper treat IQ and ROB
// occupancy as separately controllable.
func TestIQFreedAtIssue(t *testing.T) {
	cfg := testCfg()
	region := uint64(4 * cfg.Mem.L2.SizeBytes)
	gens := []prog.AddrGen{prog.PointerChase{Base: 0x4000_0000, Stride: 64, Region: region}}
	body := []isa.Instr{{Op: isa.OpLoad, Dest: 1, Src1: 1, AddrGen: 0}}
	for i := 0; i < 20; i++ {
		body = append(body, isa.Instr{Op: isa.OpAdd, Dest: 3, Src1: 2, Imm: 1})
		body = append(body, isa.Instr{Op: isa.OpStore, Dest: isa.RZero, Src1: 2, Src2: 3, AddrGen: 0})
	}
	res := mustRun(t, cfg, loopOf(body, gens), RunConfig{
		MaxInstructions: 50_000, WarmupInstructions: 10_000,
	})
	// The independent adds/stores issue promptly and leave the IQ; the
	// ROB keeps them until the blocking chase commits.
	if res.OccupancyIQ >= res.OccupancyROB {
		t.Errorf("IQ occupancy %.2f should sit below ROB occupancy %.2f",
			res.OccupancyIQ, res.OccupancyROB)
	}
}

// TestLoadWaitsForStoreData: a load aliasing an older store cannot
// complete before the store's data is ready (perfect disambiguation
// blocks it); the same loop without aliasing runs faster.
func TestLoadWaitsForStoreData(t *testing.T) {
	mk := func(alias bool) float64 {
		loadGen := 1
		if alias {
			loadGen = 0
		}
		gens := []prog.AddrGen{
			prog.Fixed{Address: 0x4000_0000},
			prog.Fixed{Address: 0x4000_1000},
		}
		body := []isa.Instr{
			// Slow chain producing the store data.
			{Op: isa.OpMul, Dest: 3, Src1: 3, Imm: 1},
			{Op: isa.OpMul, Dest: 4, Src1: 3, Imm: 1},
			{Op: isa.OpStore, Dest: isa.RZero, Src1: 2, Src2: 4, AddrGen: 0},
			// The probe load: aliases the store or not.
			{Op: isa.OpLoad, Dest: 5, Src1: 2, AddrGen: loadGen},
			{Op: isa.OpStore, Dest: isa.RZero, Src1: 2, Src2: 5, AddrGen: 1},
		}
		res := mustRun(t, testCfg(), loopOf(body, gens), RunConfig{MaxInstructions: 20_000})
		return res.IPC
	}
	aliased, free := mk(true), mk(false)
	// Both loops are bound by the serial MUL chain, so the penalty is
	// small; the guarantee is that aliasing never *helps* beyond noise.
	if aliased > free*1.05 {
		t.Errorf("aliased loop (%.3f IPC) outruns the alias-free loop (%.3f IPC)",
			aliased, free)
	}
}

// TestCommitWidthBoundsIPC: no program exceeds the 4-wide commit.
func TestCommitWidthBoundsIPC(t *testing.T) {
	var body []isa.Instr
	for i := 0; i < 12; i++ {
		body = append(body, isa.Instr{Op: isa.OpNop, Dest: isa.RZero})
	}
	res := mustRun(t, testCfg(), loopOf(body, nil), RunConfig{MaxInstructions: 40_000})
	if res.IPC > 4.0+1e-9 {
		t.Errorf("IPC %.3f exceeds the commit width", res.IPC)
	}
}

// TestRunConfigFingerprintPinned: every simcache key embeds the run
// budget's fingerprint, so its text is pinned — a changed byte would
// turn every existing disk cache cold.
func TestRunConfigFingerprintPinned(t *testing.T) {
	got := RunConfig{MaxInstructions: 160_000, WarmupInstructions: 60_000}.Fingerprint()
	const want = "pipe.RunConfig{MaxInstructions:160000 WarmupInstructions:60000 MaxCycles:0 DeadlockCycles:0}"
	if got != want {
		t.Errorf("fingerprint %q, want %q", got, want)
	}
}
