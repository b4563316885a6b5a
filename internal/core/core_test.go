package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"avfstress/internal/avf"
	"avfstress/internal/codegen"
	"avfstress/internal/ga"
	"avfstress/internal/pipe"
	"avfstress/internal/simcache"
	"avfstress/internal/uarch"
)

func testCfg() uarch.Config { return uarch.Scaled(uarch.Baseline(), 32) }

func TestGenesCoverAllKnobs(t *testing.T) {
	gs := Genes(uarch.Baseline())
	if len(gs) != numGenes {
		t.Fatalf("gene count %d, want %d", len(gs), numGenes)
	}
	// Gene ranges adapt to the microarchitecture.
	if gs[gLoopSize].Max != 96 {
		t.Errorf("loop gene max %f, want 1.2×80", gs[gLoopSize].Max)
	}
	if gs[gMissDependent].Max != 20 {
		t.Errorf("miss-dependent gene max %f, want IQ size", gs[gMissDependent].Max)
	}
	ca := Genes(uarch.ConfigA())
	if ca[gLoopSize].Max <= gs[gLoopSize].Max {
		t.Error("Config A loop range should grow with its ROB")
	}
	if ca[gMissDependent].Max != 32 {
		t.Errorf("Config A miss-dependent max %f, want 32", ca[gMissDependent].Max)
	}
}

func TestKnobsGenomeRoundTrip(t *testing.T) {
	k := codegen.Knobs{
		LoopSize: 81, NumLoads: 29, NumStores: 28, NumIndepArith: 5,
		MissDependent: 7, AvgChainLength: 2.14, DepDistance: 6,
		FracLongLatency: 0.8, FracRegReg: 0.93, Seed: 42, L2Hit: true,
	}
	got := KnobsFromGenome(GenomeFromKnobs(k))
	if got != k {
		t.Errorf("round trip lost information:\nin  %+v\nout %+v", k, got)
	}
}

// Property: any genome within the gene ranges decodes to knobs that
// normalise and generate successfully.
func TestQuickGenomeAlwaysFeasible(t *testing.T) {
	cfg := testCfg()
	gs := Genes(cfg)
	f := func(vals [numGenes]uint16) bool {
		g := make(ga.Genome, numGenes)
		for i, gene := range gs {
			g[i] = gene.Min + float64(vals[i])/65535*(gene.Max-gene.Min)
		}
		k := KnobsFromGenome(g).Normalize(cfg)
		_, _, err := codegen.Generate(cfg, k, 1000)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestEvaluateKnobs(t *testing.T) {
	cfg := testCfg()
	k, _ := referenceBaseline()
	f, err := EvaluateKnobs(context.Background(), cfg, uarch.UniformRates(1), avf.DefaultWeights(), k,
		pipe.RunConfig{MaxInstructions: 40_000, WarmupInstructions: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if f <= 0.3 || f > 1 {
		t.Errorf("baseline-knob fitness %f outside the expected (0.3, 1] band", f)
	}
	bad := cfg
	bad.Core.ROBEntries = 0
	if _, err := EvaluateKnobs(context.Background(), bad, uarch.UniformRates(1), avf.DefaultWeights(), k,
		pipe.RunConfig{MaxInstructions: 1000}); err == nil {
		t.Error("invalid config accepted")
	}
}

func referenceBaseline() (codegen.Knobs, error) {
	return codegen.Knobs{
		LoopSize: 81, NumLoads: 29, NumStores: 28, NumIndepArith: 5,
		MissDependent: 7, AvgChainLength: 2.14, DepDistance: 6,
		FracLongLatency: 0.8, FracRegReg: 0.93, Seed: 42,
	}, nil
}

// TestSearchTiny runs a miniature but complete search (the paper's
// Figure 2 loop) and checks its invariants: the search finishes, the
// best knobs are normalised, the final program passes the ACE-closure
// check, and the reported fitness matches a re-evaluation.
func TestSearchTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("GA search in -short mode")
	}
	cfg := testCfg()
	eval := pipe.RunConfig{MaxInstructions: 50_000, WarmupInstructions: 25_000}
	res, err := Search(context.Background(), SearchSpec{
		Config: cfg,
		Eval:   eval,
		Final:  eval,
		GA:     ga.Config{PopSize: 6, Generations: 4, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Knobs.Validate(cfg); err != nil {
		t.Errorf("best knobs not normalised: %v", err)
	}
	if err := codegen.CheckACEClosure(res.Program); err != nil {
		t.Errorf("best program: %v", err)
	}
	if res.Fitness <= 0 {
		t.Errorf("fitness %f", res.Fitness)
	}
	if len(res.History) != 4 {
		t.Errorf("history has %d generations, want 4", len(res.History))
	}
	if res.Evaluations <= 0 || res.Evaluations > 6*4 {
		t.Errorf("evaluations = %d outside (0, 24]", res.Evaluations)
	}
	if res.Result.ACEInstrFrac < 0.999 {
		t.Errorf("stressmark ACE fraction %.4f, must be 1", res.Result.ACEInstrFrac)
	}
}

// TestSearchSeededBeatsOrMatchesSeed: seeding the population with the
// reference knobs guarantees the search never returns anything worse.
func TestSearchSeededBeatsOrMatchesSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("GA search in -short mode")
	}
	cfg := testCfg()
	eval := pipe.RunConfig{MaxInstructions: 50_000, WarmupInstructions: 25_000}
	k, _ := referenceBaseline()
	seedFit, err := EvaluateKnobs(context.Background(), cfg, uarch.UniformRates(1), avf.DefaultWeights(), k, eval)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Search(context.Background(), SearchSpec{
		Config:    cfg,
		Eval:      eval,
		Final:     eval,
		GA:        ga.Config{PopSize: 6, Generations: 3, Seed: 1},
		SeedKnobs: []codegen.Knobs{k},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The GA's best-ever tracking can only improve on an evaluated seed.
	// Allow the small re-evaluation noise of the final (longer) run.
	if res.Fitness < seedFit*0.93 {
		t.Errorf("seeded search returned %f, seed alone scores %f", res.Fitness, seedFit)
	}
}

// TestSearchSharesSimulationsThroughCache: an identical search against a
// warm store must return the identical result without running a single
// simulation — the cross-process/GA-restart reuse the memo engine is for.
func TestSearchSharesSimulationsThroughCache(t *testing.T) {
	if testing.Short() {
		t.Skip("GA search in -short mode")
	}
	store := simcache.New(simcache.Options{})
	spec := SearchSpec{
		Config: testCfg(),
		Eval:   pipe.RunConfig{MaxInstructions: 40_000, WarmupInstructions: 20_000},
		Final:  pipe.RunConfig{MaxInstructions: 40_000, WarmupInstructions: 20_000},
		GA:     ga.Config{PopSize: 6, Generations: 3, Seed: 4},
		Cache:  store,
	}
	cold, err := Search(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	simulated := store.Stats().Simulated
	if simulated == 0 {
		t.Fatal("cold search did not populate the store")
	}
	warm, err := Search(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Simulated != simulated {
		t.Errorf("warm search re-simulated: %d -> %d", simulated, st.Simulated)
	}
	// Byte-identity of the search outcome across cache states, including
	// the evaluation count (which deliberately counts candidates, not
	// simulations).
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm search result differs:\ncold %+v\nwarm %+v", cold, warm)
	}
}

func TestDefaultEvalBudgetScalesWithConfig(t *testing.T) {
	small := DefaultEvalBudget(uarch.Scaled(uarch.Baseline(), 32))
	big := DefaultEvalBudget(uarch.Scaled(uarch.Baseline(), 8))
	if small.MaxInstructions >= big.MaxInstructions {
		t.Error("budget must grow with the L2")
	}
	if small.WarmupInstructions == 0 {
		t.Error("warmup must cover the L2 fill")
	}
	if small.WarmupInstructions >= small.MaxInstructions {
		t.Error("warmup must leave a measurement window")
	}
}

func TestSearchRejectsInvalidConfig(t *testing.T) {
	bad := testCfg()
	bad.Core.IQEntries = 0
	if _, err := Search(context.Background(), SearchSpec{Config: bad}); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestSearchCancellation: cancelling mid-search propagates
// context.Canceled and leaves the shared store uncorrupted — an
// identical search afterwards completes and matches a virgin-store run
// exactly (partial entries are content-addressed and bit-identical, so
// resuming from them changes nothing).
func TestSearchCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("GA search in -short mode")
	}
	store := simcache.New(simcache.Options{})
	spec := SearchSpec{
		Config: testCfg(),
		Eval:   pipe.RunConfig{MaxInstructions: 40_000, WarmupInstructions: 20_000},
		Final:  pipe.RunConfig{MaxInstructions: 40_000, WarmupInstructions: 20_000},
		GA:     ga.Config{PopSize: 6, Generations: 4, Seed: 4, Parallelism: 1},
		Cache:  store,
	}
	ctx, cancel := context.WithCancel(context.Background())
	gens := 0
	cancelSpec := spec
	cancelSpec.Logf = func(string, ...interface{}) {
		if gens++; gens == 1 {
			cancel() // after the first generation's summary line
		}
	}
	if _, err := Search(ctx, cancelSpec); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	partial := store.Stats().Simulated
	resumed, err := Search(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Simulated <= partial {
		t.Logf("note: resume re-simulated nothing beyond the partial %d", partial)
	}
	virgin, err := Search(context.Background(), SearchSpec{
		Config: spec.Config, Eval: spec.Eval, Final: spec.Final, GA: spec.GA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Fitness != virgin.Fitness || resumed.Knobs != virgin.Knobs ||
		resumed.Evaluations != virgin.Evaluations {
		t.Errorf("search resumed from a cancelled store diverged:\nresumed %+v\nvirgin  %+v",
			resumed.Knobs, virgin.Knobs)
	}
	for i := range virgin.History {
		if resumed.History[i] != virgin.History[i] {
			t.Fatalf("generation %d stats diverge after cancellation", i)
		}
	}
}

// TestSearchCacheDoesNotAlterTrajectory is the system-level regression
// test for the fingerprint-aliasing bug: a search with a content-
// addressed store must return exactly the result of the same search
// with caching disabled (the store may only deduplicate identical
// inputs, never distinct candidates that happen to render alike).
func TestSearchCacheDoesNotAlterTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("GA search in -short mode")
	}
	spec := SearchSpec{
		Config: testCfg(),
		Eval:   pipe.RunConfig{MaxInstructions: 40_000, WarmupInstructions: 20_000},
		Final:  pipe.RunConfig{MaxInstructions: 40_000, WarmupInstructions: 20_000},
		GA:     ga.Config{PopSize: 6, Generations: 4, Seed: 4, Parallelism: 1},
	}
	plain, err := Search(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	cached := spec
	cached.Cache = simcache.New(simcache.Options{})
	stored, err := Search(context.Background(), cached)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, stored) {
		t.Errorf("cache changed the search outcome:\nplain  %+v f=%v evals=%d\nstored %+v f=%v evals=%d",
			plain.Knobs, plain.Fitness, plain.Evaluations,
			stored.Knobs, stored.Fitness, stored.Evaluations)
	}
}

// TestSearchEvaluationsExactAcrossParallelism: identical candidates
// evaluated concurrently share one memo entry, so Evaluations counts
// distinct candidates exactly and the rendered search summary is
// byte-identical at any GA parallelism.
func TestSearchEvaluationsExactAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("GA searches in -short mode")
	}
	summary := func(r *SearchResult) string {
		return fmt.Sprintf("%d evaluations, %d cataclysms, %d failed candidates, fitness %.6f\n%s\n%+v",
			r.Evaluations, r.Cataclysms, r.FailedEvals, r.Fitness, r.Knobs, r.History)
	}
	eval := pipe.RunConfig{MaxInstructions: 20_000, WarmupInstructions: 10_000}
	for _, seed := range []int64{3, 4, 9} {
		var want string
		var wantEvals int64
		for _, par := range []int{1, 8} {
			res, err := Search(context.Background(), SearchSpec{
				Config: testCfg(), Eval: eval, Final: eval,
				GA: ga.Config{PopSize: 12, Generations: 3, Seed: seed, Parallelism: par},
			})
			if err != nil {
				t.Fatal(err)
			}
			if par == 1 {
				want, wantEvals = summary(res), res.Evaluations
				continue
			}
			if res.Evaluations != wantEvals {
				t.Errorf("seed %d: %d evaluations at parallelism %d, %d serially", seed, res.Evaluations, par, wantEvals)
			}
			if got := summary(res); got != want {
				t.Errorf("seed %d: summary at parallelism %d differs:\n%s\nserial:\n%s", seed, par, got, want)
			}
		}
	}
}
