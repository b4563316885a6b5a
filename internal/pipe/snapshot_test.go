package pipe_test

import (
	"testing"

	"avfstress/internal/cache"
	"avfstress/internal/codegen"
	"avfstress/internal/isa"
	"avfstress/internal/pipe"
	"avfstress/internal/prog"
	"avfstress/internal/uarch"
)

func checkpointFixture(t *testing.T) (uarch.Config, *pipe.Pool, pipe.RunConfig, *codegen.Knobs) {
	t.Helper()
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	pool, err := pipe.NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc := pipe.RunConfig{MaxInstructions: 6_000, WarmupInstructions: 2_000}
	k := &codegen.Knobs{LoopSize: 81, NumLoads: 29, NumStores: 28,
		NumIndepArith: 5, MissDependent: 7, AvgChainLength: 2.14,
		DepDistance: 6, FracLongLatency: 0.8, FracRegReg: 0.93, Seed: 42}
	return cfg, pool, rc, k
}

// TestResumeGoldenMatchesUninterrupted is the core restore-equivalence
// differential: resuming from every checkpoint of a golden run must
// reproduce the uninterrupted run's result, window and commit digest
// bit-exactly. The digest folds every committed instruction's opcode,
// operands, address and branch outcome, and the result folds every ACE
// accumulator of every structure — so any drift in any restored
// structure (ROB, wheel, rename state, caches, TLB, predictor, stream
// cursor) shows up here.
func TestResumeGoldenMatchesUninterrupted(t *testing.T) {
	cfg, pool, rc, k := checkpointFixture(t)
	p, _, err := codegen.Generate(cfg, *k, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	want, wantInfo, err := simulateGolden(pool, p, rc)
	if err != nil {
		t.Fatal(err)
	}
	res, info, cks, err := pool.SimulateGoldenRecorded(p, rc, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *res != *want || !sameGoldenInfo(info, wantInfo) {
		t.Fatal("checkpointed golden run drifted from plain golden run")
	}
	if len(cks.Checkpoints) < 2 {
		t.Fatalf("only %d checkpoints captured; fixture too small to test", len(cks.Checkpoints))
	}
	if cks.Lead <= 0 {
		t.Fatalf("timestamp lead %d, want positive", cks.Lead)
	}
	prev := int64(-1)
	for i, ck := range cks.Checkpoints {
		if ck.Cycle() <= prev {
			t.Fatalf("checkpoint %d at cycle %d not after previous (%d)", i, ck.Cycle(), prev)
		}
		prev = ck.Cycle()
		got, gotInfo, err := pool.ResumeGolden(ck, rc)
		if err != nil {
			t.Fatalf("resume from checkpoint %d (cycle %d): %v", i, ck.Cycle(), err)
		}
		if *got != *want {
			t.Fatalf("resume from checkpoint %d (cycle %d): result drifted\n got %+v\nwant %+v",
				i, ck.Cycle(), got, want)
		}
		if !sameGoldenInfo(gotInfo, wantInfo) {
			t.Fatalf("resume from checkpoint %d (cycle %d): info drifted: %+v vs %+v",
				i, ck.Cycle(), gotInfo, wantInfo)
		}
	}
}

// TestCheckpointedGoldenDisabled: a negative interval returns no
// checkpoint set, and the golden run's result is the plain pooled
// Simulate result.
func TestCheckpointedGoldenDisabled(t *testing.T) {
	cfg, pool, rc, k := checkpointFixture(t)
	p, _, err := codegen.Generate(cfg, *k, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pool.Simulate(p, rc)
	if err != nil {
		t.Fatal(err)
	}
	res, info, cks, err := pool.SimulateGoldenRecorded(p, rc, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cks != nil {
		t.Fatalf("disabled capture returned %d checkpoints", len(cks.Checkpoints))
	}
	if *res != *want || info.Cycles != want.Cycles {
		t.Fatal("disabled-capture golden run drifted from plain Simulate")
	}
}

// TestFaultBatchMatchesSolo: a single replay carrying many armed faults
// resolves each exactly as a dedicated per-fault replay would — faults
// are pure observers. Samples every structure and compares whole trial
// records, first-divergent-commit identity included.
func TestFaultBatchMatchesSolo(t *testing.T) {
	cfg, pool, rc, k := checkpointFixture(t)
	p, _, err := codegen.Generate(cfg, *k, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := simulateGolden(pool, p, rc)
	if err != nil {
		t.Fatal(err)
	}
	rng := lcg(11)
	var faults []pipe.Fault
	for s := uarch.Structure(0); s < uarch.NumStructures; s++ {
		bits := uarch.Bits(cfg, s)
		for i := 0; i < 8; i++ {
			faults = append(faults, pipe.Fault{
				Structure: s,
				Bit:       rng.next() % bits,
				Cycle:     info.WindowStart + int64(rng.next()%uint64(info.Cycles)),
			})
		}
	}
	if corrupted := batchMatchesSolo(t, pool, p, rc, faults); corrupted == 0 || corrupted == len(faults) {
		t.Errorf("degenerate outcome mix: %d/%d corrupted", corrupted, len(faults))
	}
}

// batchMatchesSolo replays faults as one batch and each fault alone,
// reports every trial whose record differs (outcome, first divergent
// commit, and the digest, zero in both modes), and returns the number
// of corrupted trials.
func batchMatchesSolo(t *testing.T, pool *pipe.Pool, p *prog.Program, rc pipe.RunConfig, faults []pipe.Fault) int {
	t.Helper()
	batch, err := pool.SimulateFaultsDetailFrom(p, rc, nil, faults)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for i, f := range faults {
		solo, err := pool.SimulateFaultDetail(p, rc, f)
		if err != nil {
			t.Fatalf("solo replay %+v: %v", f, err)
		}
		if batch[i] != solo {
			t.Errorf("%s %+v: batch trial %+v, solo trial %+v", f.Structure, f, batch[i], solo)
		}
		if solo.Corrupted {
			corrupted++
		}
	}
	return corrupted
}

// TestFaultBatchCollisionsMatchSolo: faults that share one target ride
// one replay and each still resolves exactly as it would alone. The
// fixture stacks, at staggered cycles:
//   - faults on one physical register across two consecutive
//     occupancies, so watches armed on the first value are resolved by
//     its release while later ones arm on the reallocated value;
//   - faults on one DL1 line and one L2 line, over several data chunks
//     (some repeated) and the tag entry;
//   - faults on one DTLB entry.
func TestFaultBatchCollisionsMatchSolo(t *testing.T) {
	cfg, pool, rc, k := checkpointFixture(t)
	p, _, err := codegen.Generate(cfg, *k, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	// Marking every static instruction dead makes the recorder log every
	// correct-path register occupancy [writer issue, release).
	every := map[*isa.Instr]bool{}
	for i := range p.Init {
		every[&p.Init[i]] = true
	}
	for i := range p.Body {
		every[&p.Body[i]] = true
	}
	_, info, _, err := pool.SimulateGoldenRecorded(p, rc, -1, every)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := info.WindowStart, info.WindowStart+info.Cycles
	core := uint64(cfg.Core.RegBits)
	// The first slot, past the window's first quarter, with two
	// consecutive closed occupancies whose values are both consumed:
	// a probe fault early in each occupancy corrupts. hit records the
	// corrupting probe cycle.
	hit := map[pipe.RFDeadInterval]int64{}
	live := func(iv pipe.RFDeadInterval) bool {
		for d := int64(1); d < iv.End-iv.Start; d *= 2 {
			c := iv.Start + d
			tr, err := pool.SimulateFaultDetail(p, rc, pipe.Fault{Structure: uarch.RF, Bit: uint64(iv.Slot) * core, Cycle: c})
			if err != nil {
				t.Fatal(err)
			}
			if tr.Corrupted {
				hit[iv] = c
				return true
			}
		}
		return false
	}
	var first, second pipe.RFDeadInterval
	prev := map[int16]pipe.RFDeadInterval{}
	for _, iv := range info.RFDead {
		if iv.End < 0 || iv.Start < lo+info.Cycles/4 || iv.End >= hi-2 || iv.End-iv.Start < 8 {
			continue
		}
		if pv, ok := prev[iv.Slot]; ok && iv.Start >= pv.End && live(pv) && live(iv) {
			first, second = pv, iv
			break
		}
		prev[iv.Slot] = iv
	}
	if second.End == 0 {
		t.Fatal("no register slot with two consumed occupancies in the window")
	}
	reg := func(off uint64, cycle int64) pipe.Fault {
		return pipe.Fault{Structure: uarch.RF, Bit: uint64(first.Slot)*core + off%core, Cycle: cycle}
	}
	faults := []pipe.Fault{
		reg(0, first.Start-1), // before the first value is written
		reg(5, first.Start),
		reg(17, hit[first]),
		reg(17, hit[first]), // an exact duplicate
		reg(20, (first.Start+first.End)/2),
		reg(31, first.End-1), // just before the release
		reg(40, first.End),   // the release cycle
		reg(44, (first.End+second.Start)/2),
		reg(50, second.Start),
		reg(55, hit[second]),
		reg(63, (second.Start+second.End)/2),
		reg(2, second.End-1),
		reg(9, second.End+1),
	}
	span := func(j, n int) int64 { return lo + info.Cycles*int64(j+1)/int64(n+1) }
	for _, c := range []struct {
		s  uarch.Structure
		cc cache.Config
	}{{uarch.DL1, cfg.Mem.DL1}, {uarch.L2, cfg.Mem.L2}} {
		const line = 5
		lineBits := uint64(c.cc.LineBytes) * 8
		chunkBits := uint64(c.cc.EffectiveChunkBytes()) * 8
		// Faults go in pairs sharing a cycle, so one access or eviction
		// resolves several watches of the line at once: tag pairs first,
		// then data pairs, the last on a single chunk.
		const n = 6
		for j := 0; j < 4; j++ {
			faults = append(faults, pipe.Fault{Structure: c.s,
				Bit:   c.cc.DataBits() + line*c.cc.TagBitsPerLine() + uint64(j*5)%c.cc.TagBitsPerLine(),
				Cycle: span(j/2, n)})
		}
		for j, ci := range []uint64{0, 1, 1, 3, 7, 4, 7, 7} {
			faults = append(faults, pipe.Fault{Structure: c.s,
				Bit: line*lineBits + ci*chunkBits + uint64(j*13)%chunkBits, Cycle: span(2+j/2, n)})
		}
	}
	const entry = 1
	eb := uint64(cfg.Mem.DTLB.EntryBits)
	for j := 0; j < 6; j++ {
		faults = append(faults, pipe.Fault{Structure: uarch.DTLB,
			Bit: entry*eb + uint64(j*23)%eb, Cycle: span(j/2, 3)})
	}
	for _, f := range faults {
		if f.Cycle < lo || f.Cycle >= hi {
			t.Fatalf("fixture fault %+v outside the window [%d, %d)", f, lo, hi)
		}
	}
	if corrupted := batchMatchesSolo(t, pool, p, rc, faults); corrupted == 0 || corrupted == len(faults) {
		t.Errorf("degenerate outcome mix: %d/%d corrupted", corrupted, len(faults))
	}
}

// TestFaultForkMatchesCold: forking a fault replay from the nearest
// valid checkpoint yields the same classification as replaying from
// cycle zero, for every structure and for bucketed multi-fault batches
// — the property the campaign engine's speedup rests on.
func TestFaultForkMatchesCold(t *testing.T) {
	cfg, pool, rc, k := checkpointFixture(t)
	p, _, err := codegen.Generate(cfg, *k, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	_, info, cks, err := pool.SimulateGoldenRecorded(p, rc, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := lcg(23)
	var faults []pipe.Fault
	for s := uarch.Structure(0); s < uarch.NumStructures; s++ {
		bits := uarch.Bits(cfg, s)
		for i := 0; i < 8; i++ {
			faults = append(faults, pipe.Fault{
				Structure: s,
				Bit:       rng.next() % bits,
				Cycle:     info.WindowStart + int64(rng.next()%uint64(info.Cycles)),
			})
		}
	}
	// Bucket by nearest valid checkpoint, exactly as the campaign does.
	buckets := make(map[int][]pipe.Fault)
	for _, f := range faults {
		buckets[cks.Nearest(f.Cycle)] = append(buckets[cks.Nearest(f.Cycle)], f)
	}
	forked := 0
	for idx, bucket := range buckets {
		var ck *pipe.Checkpoint
		if idx >= 0 {
			ck = cks.Checkpoints[idx]
			forked += len(bucket)
			for _, f := range bucket {
				if ck.Cycle()+cks.Lead > f.Cycle {
					t.Fatalf("Nearest violated the lead margin: ck cycle %d + lead %d > fault cycle %d",
						ck.Cycle(), cks.Lead, f.Cycle)
				}
			}
		}
		got, err := pool.SimulateFaultsDetailFrom(p, rc, ck, bucket)
		if err != nil {
			t.Fatalf("bucket %d: %v", idx, err)
		}
		for i, f := range bucket {
			cold, err := pool.SimulateFaultDetail(p, rc, f)
			if err != nil {
				t.Fatal(err)
			}
			if got[i].Corrupted != cold.Corrupted {
				t.Errorf("%s %+v (ck %d): forked says corrupted=%v, cold says %v",
					f.Structure, f, idx, got[i].Corrupted, cold.Corrupted)
			}
		}
	}
	if forked == 0 {
		t.Fatal("no fault forked from a checkpoint; fixture exercises nothing")
	}
}

// TestRestoreOntoDirtyPipeline: a pooled pipeline left dirty by a
// different program is a valid restore target — Restore overwrites
// every live field without an intervening Reset.
func TestRestoreOntoDirtyPipeline(t *testing.T) {
	cfg, pool, rc, k := checkpointFixture(t)
	p, _, err := codegen.Generate(cfg, *k, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	k2 := *k
	k2.Seed = 99
	k2.LoopSize = 40
	other, _, err := codegen.Generate(cfg, k2, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	want, wantInfo, cks, err := pool.SimulateGoldenRecorded(p, rc, 512, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the pool's pipeline with a different program mid-flight, then
	// resume p's checkpoint on it.
	if _, err := pool.Simulate(other, rc); err != nil {
		t.Fatal(err)
	}
	ck := cks.Checkpoints[len(cks.Checkpoints)/2]
	got, gotInfo, err := pool.ResumeGolden(ck, rc)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want || !sameGoldenInfo(gotInfo, wantInfo) {
		t.Fatal("resume on a pool dirtied by another program drifted")
	}
}

// TestNearestCheckpoint pins the bucketing rule: largest index whose
// cycle+lead ≤ fault cycle, -1 when none qualifies.
func TestNearestCheckpoint(t *testing.T) {
	cycles := []int64{100, 200, 300}
	const lead = 50
	cases := []struct {
		cycle int64
		want  int
	}{
		{0, -1}, {100, -1}, {149, -1},
		{150, 0}, {249, 0},
		{250, 1}, {349, 1},
		{350, 2}, {10_000, 2},
	}
	for _, c := range cases {
		if got := pipe.NearestCheckpoint(cycles, lead, c.cycle); got != c.want {
			t.Errorf("NearestCheckpoint(%d) = %d, want %d", c.cycle, got, c.want)
		}
	}
	if got := pipe.NearestCheckpoint(nil, lead, 1000); got != -1 {
		t.Errorf("empty manifest: got %d, want -1", got)
	}
}
