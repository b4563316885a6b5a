// Benchmarks regenerating every table and figure of the paper's
// evaluation (run: go test -bench=. -benchmem). Each benchmark executes
// the corresponding experiment end-to-end on the scaled configuration
// with the paper's published reference knobs (the GA-search path is
// exercised by BenchmarkFig5_GASearchBaseline) and reports the
// experiment's headline quantities via b.ReportMetric, so the bench log
// doubles as a results table (archived per PR in BENCH_<date>.json).
package avfstress_test

import (
	"context"
	"testing"

	"avfstress/internal/avf"
	"avfstress/internal/codegen"
	"avfstress/internal/core"
	"avfstress/internal/experiments"
	"avfstress/internal/ga"
	"avfstress/internal/inject"
	"avfstress/internal/pipe"
	"avfstress/internal/simcache"
	"avfstress/internal/uarch"
	"avfstress/internal/workloads"
)

// benchOpts are the shared scaled-down settings: reference knobs, short
// workload windows. Each benchmark builds a fresh context per iteration
// so b.N measures full experiment regeneration.
func benchOpts() experiments.Options {
	return experiments.Options{
		Scale: 32, Seed: 1, UseReferenceKnobs: true,
		WorkloadInstr: 100_000, WorkloadWarmup: 40_000,
	}
}

// BenchmarkTableI_BaselineSim measures one baseline stressmark
// simulation (the unit of work everything else repeats).
func BenchmarkTableI_BaselineSim(b *testing.B) {
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	k, _ := experiments.ReferenceKnobs("baseline")
	p, _, err := codegen.Generate(cfg, k, 1<<40)
	if err != nil {
		b.Fatal(err)
	}
	var instrs, cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipe.Simulate(cfg, p, pipe.RunConfig{
			MaxInstructions: 120_000, WarmupInstructions: 40_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		instrs, cycles = res.Instructions, res.Cycles
	}
	b.ReportMetric(float64(instrs), "instrs/run")
	b.ReportMetric(float64(cycles), "cycles/run")
}

// BenchmarkFig3_StressmarkVsSPEC regenerates Figure 3 and reports the
// stressmark's per-class advantage over the best SPEC proxy.
func BenchmarkFig3_StressmarkVsSPEC(b *testing.B) {
	var adv [avf.NumClasses]float64
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOpts())
		f, err := ctx.Fig3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, cl := range avf.AllClasses() {
			adv[cl] = f.Advantage(cl)
		}
	}
	b.ReportMetric(adv[avf.ClassQSRF], "x-core-adv")
	b.ReportMetric(adv[avf.ClassDL1DTLB], "x-dl1dtlb-adv")
	b.ReportMetric(adv[avf.ClassL2], "x-l2-adv")
}

// BenchmarkFig4_StressmarkVsMiBench regenerates Figure 4.
func BenchmarkFig4_StressmarkVsMiBench(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOpts())
		f, err := ctx.Fig4(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		adv = f.Advantage(avf.ClassQSRF)
	}
	b.ReportMetric(adv, "x-core-adv")
}

// BenchmarkFig5_GASearchBaseline runs the actual GA search (scaled-down
// population) — the paper's 2,500-run search compressed to ~60
// evaluations per iteration.
func BenchmarkFig5_GASearchBaseline(b *testing.B) {
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	eval := pipe.RunConfig{MaxInstructions: 60_000, WarmupInstructions: 30_000}
	var fit float64
	var evals int64
	for i := 0; i < b.N; i++ {
		res, err := core.Search(context.Background(), core.SearchSpec{
			Config: cfg,
			Eval:   eval,
			Final:  eval,
			GA:     ga.Config{PopSize: 10, Generations: 6, Seed: int64(i + 1)},
		})
		if err != nil {
			b.Fatal(err)
		}
		fit, evals = res.Fitness, res.Evaluations
	}
	b.ReportMetric(fit, "fitness")
	b.ReportMetric(float64(evals), "evals")
}

// BenchmarkFig6_PerStructureAVF regenerates the three per-structure AVF
// tables and reports the stressmark's ROB and DL1 AVFs.
func BenchmarkFig6_PerStructureAVF(b *testing.B) {
	var rob, dl1 float64
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOpts())
		f, err := ctx.Fig6(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		rob, dl1 = f.Stressmark.AVF[uarch.ROB], f.Stressmark.AVF[uarch.DL1]
	}
	b.ReportMetric(rob*100, "%rob-avf")
	b.ReportMetric(dl1*100, "%dl1-avf")
}

// BenchmarkFig7_MitigatedWorkloads evaluates the suite under the RHC and
// EDR fault-rate sets.
func BenchmarkFig7_MitigatedWorkloads(b *testing.B) {
	var rhcTop, edrTop float64
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOpts())
		f, err := ctx.Fig7(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		rhcTop = f.Parts[0].Stressmark.SER[avf.ClassQSRF]
		edrTop = f.Parts[1].Stressmark.SER[avf.ClassQSRF]
	}
	b.ReportMetric(rhcTop, "rhc-core-ser")
	b.ReportMetric(edrTop, "edr-core-ser")
}

// BenchmarkFig8_FaultRateAdaptation regenerates the three-rate-set
// stressmark comparison.
func BenchmarkFig8_FaultRateAdaptation(b *testing.B) {
	var iqRHC float64
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOpts())
		f, err := ctx.Fig8(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		iqRHC = f.Marks[1].AVF[uarch.IQ]
	}
	b.ReportMetric(iqRHC*100, "%rhc-iq-avf")
}

// BenchmarkFig9_ConfigA regenerates the Configuration A adaptation.
func BenchmarkFig9_ConfigA(b *testing.B) {
	var rob float64
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOpts())
		f, err := ctx.Fig9(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		rob = f.Marks[1].AVF[uarch.ROB]
	}
	b.ReportMetric(rob*100, "%configA-rob-avf")
}

// BenchmarkTable3_Estimators regenerates the estimator comparison and
// reports the baseline row (paper: 0.63 / 0.46 / 0.58 / 1.0).
func BenchmarkTable3_Estimators(b *testing.B) {
	var row experiments.Table3Row
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOpts())
		t3, err := ctx.Table3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		row = t3.Rows[0]
	}
	b.ReportMetric(row.Stressmark, "stressmark")
	b.ReportMetric(row.BestProgramSER, "best-program")
	b.ReportMetric(row.SumPerStructure, "per-structure-sum")
}

// BenchmarkWorstCase_SectionVI reproduces the instantaneous-bound
// analysis (paper: stressmark 0.797 vs bound 0.899).
func BenchmarkWorstCase_SectionVI(b *testing.B) {
	var sustained, bound float64
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOpts())
		w, err := ctx.WorstCase(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		sustained, bound = w.Stressmark, w.Breakdown.Value()
	}
	b.ReportMetric(sustained, "sustained-qs")
	b.ReportMetric(bound, "instant-bound")
}

// BenchmarkRunAll regenerates the complete evaluation (all 14
// experiments) on one shared context with a cold cache — the
// cross-experiment sharing case: Fig3/Fig4/Fig6/Fig7, Table III, the
// worst-case, power and root-cause studies all reuse the same
// 33-workload baseline suite and stressmark evaluations.
func BenchmarkRunAll(b *testing.B) {
	var sims int64
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOpts())
		if _, err := ctx.RunScenarios(context.Background(), experiments.Names()); err != nil {
			b.Fatal(err)
		}
		sims = ctx.CacheStats().Simulated
	}
	b.ReportMetric(float64(sims), "sims/run")
}

// BenchmarkRunAllWarm is the second-pass case: a fresh context per
// iteration sharing one pre-warmed store, so every simulation is a memo
// hit and the iteration cost is experiment assembly and rendering only.
// The acceptance target is ≥5x faster than BenchmarkRunAll.
func BenchmarkRunAllWarm(b *testing.B) {
	store := simcache.New(simcache.Options{})
	opts := benchOpts()
	opts.Cache = store
	if _, err := experiments.NewContext(opts).RunScenarios(context.Background(), experiments.Names()); err != nil {
		b.Fatal(err)
	}
	warmed := store.Stats().Simulated
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(opts)
		if _, err := ctx.RunScenarios(context.Background(), experiments.Names()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := store.Stats(); st.Simulated != warmed {
		b.Fatalf("warm pass simulated: %d -> %d", warmed, st.Simulated)
	}
	b.ReportMetric(float64(store.Stats().MemHits)/float64(b.N), "hits/run")
}

// BenchmarkInjectCampaign measures a 1000-trial fault-injection
// campaign: one golden run plus one replay from cycle zero carrying
// every unique fault (DESIGN.md §10). That the replay fills every slot
// exactly as a per-fault replay would is internal/inject's
// TestCampaignPassMatchesSolo.
func BenchmarkInjectCampaign(b *testing.B) {
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	k, _ := experiments.ReferenceKnobs("baseline")
	p, _, err := codegen.Generate(cfg, k, 1<<40)
	if err != nil {
		b.Fatal(err)
	}
	opts := inject.Options{
		Config:  cfg,
		Program: p,
		Run:     pipe.RunConfig{MaxInstructions: 6_000, WarmupInstructions: 2_000},
		Trials:  1000,
		Seed:    1,
	}
	var res *inject.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = inject.Run(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.AVF, "avf")
}

// BenchmarkInjectCampaignPruned measures a 1000-trial campaign with
// static liveness pruning (the timed loop) against the same campaign
// with pruning disabled (run once, untimed). Pruning must not change
// any replayed outcome: per stratum, the baseline's outcome counts must
// equal the pruned campaign's phase-1 counts, with the pruned targets
// accounting exactly for the baseline's extra masked trials. Reported
// metrics: the pruned fraction of sampled targets and the effective
// trial throughput (analytic prunes included — they are free).
func BenchmarkInjectCampaignPruned(b *testing.B) {
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	k, _ := experiments.ReferenceKnobs("baseline")
	p, _, err := codegen.Generate(cfg, k, 1<<40)
	if err != nil {
		b.Fatal(err)
	}
	opts := inject.Options{
		Config:  cfg,
		Program: p,
		Run:     pipe.RunConfig{MaxInstructions: 6_000, WarmupInstructions: 2_000},
		Trials:  1000,
		Seed:    1,
	}
	opts.PruneStatic = -1
	base, err := inject.Run(context.Background(), opts)
	if err != nil {
		b.Fatal(err)
	}

	opts.PruneStatic = 0
	var pruned *inject.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pruned, err = inject.Run(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if pruned.Pruned == 0 {
		b.Fatal("pruned campaign pruned no targets")
	}
	for i, bs := range base.Structures {
		ps := pruned.Structures[i]
		if bs.SDC != ps.Phase1SDC || bs.Detected != ps.Phase1Detected ||
			bs.Masked != ps.Phase1Masked+ps.Pruned {
			b.Fatalf("%s: baseline outcomes %d/%d/%d != pruned phase-1 %d/%d/%d+%d — pruning changed a replay outcome",
				bs.Structure, bs.SDC, bs.Detected, bs.Masked,
				ps.Phase1SDC, ps.Phase1Detected, ps.Phase1Masked, ps.Pruned)
		}
	}
	b.ReportMetric(float64(pruned.Pruned)/float64(pruned.Trials), "x-prune-frac")
	b.ReportMetric(float64(pruned.Trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
	b.ReportMetric(pruned.AVF, "avf")
}

// BenchmarkCodegen measures raw stressmark generation throughput.
func BenchmarkCodegen(b *testing.B) {
	cfg := uarch.Baseline()
	k, _ := experiments.ReferenceKnobs("baseline")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Seed = int64(i)
		if _, _, err := codegen.Generate(cfg, k, 1<<40); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures simulator speed in committed
// instructions per wall-second on a mixed workload proxy.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	pf, err := workloads.ByName("403.gcc")
	if err != nil {
		b.Fatal(err)
	}
	p, err := pf.Build(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	const instrs = 100_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipe.Simulate(cfg, p, pipe.RunConfig{MaxInstructions: instrs}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// --- Ablation benchmarks for the design choices DESIGN.md calls out ---

// ablationEval evaluates one knob set under the default fitness.
func ablationEval(b *testing.B, k codegen.Knobs) float64 {
	b.Helper()
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	ev, err := core.NewEvaluator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f, err := ev.EvaluateKnobs(context.Background(), uarch.UniformRates(1), avf.DefaultWeights(), k,
		pipe.RunConfig{MaxInstructions: 100_000, WarmupInstructions: 40_000})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkAblation_L2HitVsMiss contrasts the two generator variants on
// the baseline (the L2-miss shadow is the central AVF mechanism; the
// hit variant trades it for IPC-driven FU/RF stress).
func BenchmarkAblation_L2HitVsMiss(b *testing.B) {
	base, _ := experiments.ReferenceKnobs("baseline")
	hit := base
	hit.L2Hit = true
	var fMiss, fHit float64
	for i := 0; i < b.N; i++ {
		fMiss = ablationEval(b, base)
		fHit = ablationEval(b, hit)
	}
	b.ReportMetric(fMiss, "fitness-miss")
	b.ReportMetric(fHit, "fitness-hit")
}

// BenchmarkAblation_MissDependent sweeps the IQ-occupancy knob
// (instructions dependent on the L2 miss).
func BenchmarkAblation_MissDependent(b *testing.B) {
	base, _ := experiments.ReferenceKnobs("baseline")
	var f0, f7, f16 float64
	for i := 0; i < b.N; i++ {
		k := base
		k.MissDependent = 0
		f0 = ablationEval(b, k)
		k.MissDependent = 7
		f7 = ablationEval(b, k)
		k.MissDependent = 16
		f16 = ablationEval(b, k)
	}
	b.ReportMetric(f0, "fitness-md0")
	b.ReportMetric(f7, "fitness-md7")
	b.ReportMetric(f16, "fitness-md16")
}

// BenchmarkAblation_LoopSize probes the paper's claim that the optimal
// loop size sits near the ROB size (81 for an 80-entry ROB).
func BenchmarkAblation_LoopSize(b *testing.B) {
	base, _ := experiments.ReferenceKnobs("baseline")
	var f40, f81, f96 float64
	for i := 0; i < b.N; i++ {
		k := base
		k.LoopSize = 40
		f40 = ablationEval(b, k)
		k.LoopSize = 81
		f81 = ablationEval(b, k)
		k.LoopSize = 96
		f96 = ablationEval(b, k)
	}
	b.ReportMetric(f40, "fitness-loop40")
	b.ReportMetric(f81, "fitness-loop81")
	b.ReportMetric(f96, "fitness-loop96")
}

// BenchmarkAblation_RegReg probes the register-usage knob's effect on RF
// vulnerability (the persistent-register mechanism).
func BenchmarkAblation_RegReg(b *testing.B) {
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	base, _ := experiments.ReferenceKnobs("baseline")
	var rfLo, rfHi float64
	for i := 0; i < b.N; i++ {
		for _, frac := range []float64{0.0, 0.93} {
			k := base
			k.FracRegReg = frac
			p, _, err := codegen.Generate(cfg, k, 1<<40)
			if err != nil {
				b.Fatal(err)
			}
			res, err := pipe.Simulate(cfg, p, pipe.RunConfig{
				MaxInstructions: 100_000, WarmupInstructions: 40_000,
			})
			if err != nil {
				b.Fatal(err)
			}
			if frac == 0 {
				rfLo = res.AVF[uarch.RF]
			} else {
				rfHi = res.AVF[uarch.RF]
			}
		}
	}
	b.ReportMetric(rfLo*100, "%rf-avf-regreg0")
	b.ReportMetric(rfHi*100, "%rf-avf-regreg93")
}

// BenchmarkPowerContrast regenerates the §IV-B power-vs-AVF study.
func BenchmarkPowerContrast(b *testing.B) {
	var powerKingSER, stressmarkSER float64
	for i := 0; i < b.N; i++ {
		ctx := experiments.NewContext(benchOpts())
		p, err := ctx.PowerContrast(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		powerKingSER = p.PowerKing().SER
		stressmarkSER = p.AVFKing().SER
	}
	b.ReportMetric(powerKingSER, "powerking-ser")
	b.ReportMetric(stressmarkSER, "stressmark-ser")
}
