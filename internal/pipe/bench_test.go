package pipe_test

import (
	"testing"

	"avfstress/internal/codegen"
	"avfstress/internal/pipe"
	"avfstress/internal/uarch"
)

// BenchmarkSliceReplay measures the replay layer alone: one fork from a
// golden-run checkpoint and one batched replay of an 80-fault slice, the
// shape of a 5000-trial campaign's slices (about 78 trials in each of at
// most 64). The budget is the campaign's (20,000 instructions after a
// 7,500-instruction warmup, scale-32 baseline, reference stressmark).
// Targets are drawn uniformly over the bit space of every structure —
// the campaign's bit-proportional allocation — at injection cycles
// inside the checkpoint's slice of the window.
func BenchmarkSliceReplay(b *testing.B) {
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	pool, err := pipe.NewPool(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rc := pipe.RunConfig{MaxInstructions: 20_000, WarmupInstructions: 7_500}
	k := codegen.Knobs{LoopSize: 81, NumLoads: 29, NumStores: 28,
		NumIndepArith: 5, MissDependent: 7, AvgChainLength: 2.14,
		DepDistance: 6, FracLongLatency: 0.8, FracRegReg: 0.93, Seed: 42}
	p, _, err := codegen.Generate(cfg, k, 1<<40)
	if err != nil {
		b.Fatal(err)
	}
	_, _, cks, err := pool.SimulateGoldenRecorded(p, rc, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	ci := len(cks.Checkpoints) / 2
	ck := cks.Checkpoints[ci]
	lo := ck.Cycle() + cks.Lead
	var total uint64
	for s := uarch.Structure(0); s < uarch.NumStructures; s++ {
		total += uarch.Bits(cfg, s)
	}
	rng := lcg(5)
	faults := make([]pipe.Fault, 80)
	for i := range faults {
		bit, s := rng.next()%total, uarch.Structure(0)
		for bit >= uarch.Bits(cfg, s) {
			bit -= uarch.Bits(cfg, s)
			s++
		}
		faults[i] = pipe.Fault{Structure: s, Bit: bit, Cycle: lo + int64(rng.next()%uint64(cks.Interval))}
		if cks.Nearest(faults[i].Cycle) != ci {
			b.Fatalf("fault %+v not served by checkpoint %d", faults[i], ci)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.SimulateFaultsDetailFrom(p, rc, ck, faults); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(faults)*b.N)/b.Elapsed().Seconds(), "trials/s")
}
