package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"avfstress/internal/codegen"
	"avfstress/internal/simcache"
	"avfstress/internal/uarch"
	"avfstress/internal/workloads"
)

// smallOpts keeps the cache/aliasing tests cheap: short windows, paper
// knobs, no GA.
func smallOpts() Options {
	return Options{
		Scale: 32, Seed: 1, UseReferenceKnobs: true,
		WorkloadInstr: 40_000, WorkloadWarmup: 10_000,
	}
}

// TestWorkloadsNotAliasedByConfigName is the regression test for the
// PR 3 key fix: the wl/sm memos used to key on cfg.Name alone, so two
// differently-scaled configurations sharing a Name silently served each
// other's results. They now key on the configuration fingerprint.
func TestWorkloadsNotAliasedByConfigName(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite in -short mode")
	}
	ctx := NewContext(smallOpts())
	small := ctx.Baseline // Baseline/s32
	big := uarch.Scaled(uarch.Baseline(), 8)
	big.Name = small.Name // force the historical collision

	rsSmall, err := ctx.Workloads(bg, small)
	if err != nil {
		t.Fatal(err)
	}
	rsBig, err := ctx.Workloads(bg, big)
	if err != nil {
		t.Fatal(err)
	}
	// The geometries differ by 4x, so at least some workloads must see
	// different cache behaviour; aliasing would make every result
	// pointer-identical.
	distinct := false
	for i := range rsSmall {
		if rsSmall[i] != rsBig[i] {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Fatal("two configs sharing a Name were served one cached suite")
	}
	differs := false
	for i := range rsSmall {
		if rsSmall[i].DL1MissRate != rsBig[i].DL1MissRate || rsSmall[i].Cycles != rsBig[i].Cycles {
			differs = true
			break
		}
	}
	if !differs {
		t.Error("4x-scaled geometries produced identical suites (suspicious)")
	}
}

// TestStressmarkNotAliasedByKey: the sm memo must distinguish the same
// search key evaluated on different configurations.
func TestStressmarkNotAliasedByKey(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite in -short mode")
	}
	ctx := NewContext(smallOpts())
	big := uarch.Scaled(uarch.Baseline(), 16)
	big.Name = ctx.Baseline.Name
	a, err := ctx.Stressmark(bg, "baseline", ctx.Baseline, uarch.UniformRates(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.Stressmark(bg, "baseline", big, uarch.UniformRates(1))
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("same search key on two configurations served one cached result")
	}
	if a.Result.Cycles == b.Result.Cycles && a.Result.AVF == b.Result.AVF {
		t.Error("2x-scaled geometries produced identical stressmark results (suspicious)")
	}
}

// TestRunByteIdenticalAcrossCacheStates is the tentpole's bit-identity
// lock: the rendered experiment output must be byte-equal with
// per-simulation caching disabled, with a cold disk tier, and in a
// fresh context warm-from-disk only.
func TestRunByteIdenticalAcrossCacheStates(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite in -short mode")
	}
	dir := t.TempDir()
	render := func(ctx *Context) string {
		out := ""
		for _, name := range []string{"fig3", "fig6", "worstcase"} {
			s, err := ctx.Run(bg, name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out += s
		}
		return out
	}

	off := NewContext(smallOpts())
	off.cache = nil // per-simulation memoisation off entirely
	plain := render(off)

	cold := smallOpts()
	cold.Cache = simcache.New(simcache.Options{Dir: dir})
	first := render(NewContext(cold))
	if first != plain {
		t.Fatal("cache-enabled output differs from cache-disabled output")
	}

	warm := smallOpts()
	warm.Cache = simcache.New(simcache.Options{Dir: dir})
	warmCtx := NewContext(warm)
	out := ""
	for _, name := range []string{"fig3", "fig6", "worstcase"} {
		s, err := warmCtx.Run(bg, name)
		if err != nil {
			t.Fatalf("warm %s: %v", name, err)
		}
		out += s
	}
	if out != plain {
		t.Fatal("warm-from-disk output differs from cache-disabled output")
	}
	st := warmCtx.CacheStats()
	if st.DiskHits == 0 {
		t.Errorf("warm run reports no disk hits: %+v", st)
	}
	if st.Simulated != 0 {
		t.Errorf("warm run still simulated %d times", st.Simulated)
	}
}

// TestSharedStoreDeduplicatesAcrossContexts: a store injected into two
// fresh contexts must make the second context's experiments pure memo
// hits — the cross-experiment, cross-process sharing the memo engine
// exists for.
func TestSharedStoreDeduplicatesAcrossContexts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite in -short mode")
	}
	store := simcache.New(simcache.Options{})
	opts := smallOpts()
	opts.Cache = store
	if _, err := NewContext(opts).Fig3(bg); err != nil {
		t.Fatal(err)
	}
	simulated := store.Stats().Simulated
	if simulated == 0 {
		t.Fatal("first context did not populate the store")
	}
	if _, err := NewContext(opts).Fig3(bg); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Simulated != simulated {
		t.Errorf("second context re-simulated: %d -> %d", simulated, st.Simulated)
	}
	if st.MemHits == 0 {
		t.Error("second context reports no memory hits")
	}
}

// generatorPin is the digest TestGeneratorOutputPinned expects. Change
// it together with a simcache.EngineVersion bump (DESIGN.md §7), unless
// only Program.Fingerprint's encoding changed: that changes every key
// with it, so nothing stale stays reachable.
const generatorPin = "85a8b36ff82d45a3b3c8751e62041ea38b464f7a0dae0c94ed127358eab8fcf3"

// TestGeneratorOutputPinned pins what the simcache store keys by
// generator input rather than by program: workload proxies are keyed by
// (configuration, workloads.Profile, seed) and stressmarks by
// (configuration, codegen.Knobs), so a change to what
// workloads.Profile.Build or codegen.Generate emits for unchanged inputs
// would let a disk tier serve results simulated from the old programs.
// The test hashes the program fingerprints of every proxy and every
// reference stressmark on both configurations into one digest.
func TestGeneratorOutputPinned(t *testing.T) {
	h := sha256.New()
	for _, cfg := range []uarch.Config{
		uarch.Scaled(uarch.Baseline(), 32), uarch.Scaled(uarch.ConfigA(), 32),
	} {
		for _, pf := range workloads.Profiles() {
			p, err := pf.Build(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s proxy %s %s\n", cfg.Name, pf.Name, p.Fingerprint())
		}
		for _, key := range []string{"baseline", "rhc", "edr", "configA"} {
			k, err := ReferenceKnobs(key)
			if err != nil {
				t.Fatal(err)
			}
			p, _, err := codegen.Generate(cfg, k, 1<<40)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s knobs %s %s\n", cfg.Name, key, p.Fingerprint())
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != generatorPin {
		t.Errorf("generator output changed: digest %s, pinned %s.\n"+
			"Proxy and stressmark results are memoised under their generator inputs, "+
			"so DESIGN.md §7 requires a simcache.EngineVersion bump with the new pin "+
			"(none if only Program.Fingerprint's encoding changed).",
			got, generatorPin)
	}
}
