package inject

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"avfstress/internal/codegen"
	"avfstress/internal/pipe"
	"avfstress/internal/prog"
	"avfstress/internal/simcache"
	"avfstress/internal/uarch"
)

var bg = context.Background()

func testProgram(t *testing.T, cfg uarch.Config) *prog.Program {
	t.Helper()
	k := codegen.Knobs{LoopSize: 81, NumLoads: 29, NumStores: 28,
		NumIndepArith: 5, MissDependent: 7, AvgChainLength: 2.14,
		DepDistance: 6, FracLongLatency: 0.8, FracRegReg: 0.93, Seed: 42}
	p, _, err := codegen.Generate(cfg, k, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testOptions(t *testing.T, trials int) Options {
	t.Helper()
	cfg := uarch.Scaled(uarch.Baseline(), 32)
	return Options{
		Config:  cfg,
		Program: testProgram(t, cfg),
		Run:     pipe.RunConfig{MaxInstructions: 6_000, WarmupInstructions: 2_000},
		Trials:  trials,
		Seed:    1,
	}
}

// TestCampaignValidatesACE is the acceptance experiment: for a fixed
// seed and ≥1000 trials on the scaled baseline, the injection-measured
// AVF's 95% confidence interval must contain the ACE-based AVF — both
// bit-weighted and rate-derated — and every trial must classify (no
// trial is lost to an error).
func TestCampaignValidatesACE(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-replay campaign in -short mode")
	}
	res, err := Run(bg, testOptions(t, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials < 1000 {
		t.Fatalf("ran %d trials, want >= 1000", res.Trials)
	}
	if got := res.SDC + res.Detected + res.Masked + res.Pruned; got != res.Trials {
		t.Fatalf("outcome counts %d != trials %d", got, res.Trials)
	}
	for _, sr := range res.Structures {
		if got := sr.SDC + sr.Detected + sr.Masked + sr.Pruned; got != sr.Trials {
			t.Fatalf("%s: outcome counts %d != trials %d", sr.Structure, got, sr.Trials)
		}
	}
	if !res.CI.Contains(res.ACEAVF) {
		t.Errorf("ACE AVF %.4f outside injection 95%% CI [%.4f, %.4f] (measured %.4f)\n%s",
			res.ACEAVF, res.CI.Lo, res.CI.Hi, res.AVF, res)
	}
	if !res.DeratedCI.Contains(res.DeratedACE) {
		t.Errorf("derated ACE %.4f outside derated 95%% CI [%.4f, %.4f] (measured %.4f)\n%s",
			res.DeratedACE, res.DeratedCI.Lo, res.DeratedCI.Hi, res.DeratedAVF, res)
	}
	if res.SDC == 0 || res.Masked == 0 {
		t.Errorf("degenerate campaign: %d SDC / %d masked\n%s", res.SDC, res.Masked, res)
	}
	// Uniform rates: nothing is detection-protected, and the derated
	// aggregate equals the bit-weighted one.
	if res.Detected != 0 {
		t.Errorf("%d detected outcomes under uniform rates", res.Detected)
	}
	if res.DeratedAVF != res.AVF || res.DeratedACE != res.ACEAVF {
		t.Error("uniform-rate derated aggregate differs from bit-weighted")
	}
}

// TestCampaignDetectedTaxonomy: under EDR rates, corruptions in the
// protected structures classify as detected (DUE), never SDC, and the
// protected structures contribute nothing to the derated aggregate: it
// is the rate×bits-weighted mean of the unprotected strata alone.
func TestCampaignDetectedTaxonomy(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	o := testOptions(t, 300)
	o.Rates = uarch.EDRRates()
	res, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	var weight, weighted float64
	for _, sr := range res.Structures {
		protected := o.Rates[sr.Structure] == 0
		if protected && sr.SDC != 0 {
			t.Errorf("%s: %d SDC on a detection-protected structure", sr.Structure, sr.SDC)
		}
		if !protected && sr.Detected != 0 {
			t.Errorf("%s: %d detected on an unprotected structure", sr.Structure, sr.Detected)
		}
		if !protected {
			w := o.Rates[sr.Structure] * float64(sr.Bits)
			weight += w
			weighted += w * sr.AVF
		}
	}
	if res.Detected == 0 {
		t.Error("EDR campaign found no detected outcomes")
	}
	if want := weighted / weight; math.Abs(res.DeratedAVF-want) > 1e-12 {
		t.Errorf("derated AVF %.6f != %.6f, the rate-weighted unprotected strata", res.DeratedAVF, want)
	}
}

// TestCampaignByteDeterministic: same seed ⇒ byte-identical report —
// across independent runs and across a cold and a warm disk cache (the
// warm run must be served from the blob tier without a single replay).
// Worker-count invariance is a property of the study that fans
// campaigns out (experiments' TestFaultInjectionWorkerInvariant).
func TestCampaignByteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	dir := t.TempDir()
	o := testOptions(t, 200)

	o.Cache = simcache.New(simcache.Options{Dir: dir})
	cold, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	if o.Cache.Stats().Simulated == 0 {
		t.Fatal("cold campaign replayed nothing")
	}

	// Fresh store, same directory: warm from disk, zero replays.
	o.Cache = simcache.New(simcache.Options{Dir: dir})
	warm, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	if st := o.Cache.Stats(); st.Simulated != 0 || st.DiskHits == 0 {
		t.Errorf("warm campaign stats %v, want 0 simulated and >0 disk hits", st)
	}

	// No cache at all: every trial replayed, same bytes.
	o.Cache = nil
	bare, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	if cold.String() != warm.String() || cold.String() != bare.String() {
		t.Errorf("campaign reports differ across cache states:\ncold:\n%s\nwarm:\n%s\nbare:\n%s",
			cold, warm, bare)
	}
}

// TestCampaignPassMatchesSolo is the whole-campaign exactness oracle:
// the one replay that carries every unique target of a campaign must
// fill each trial slot with exactly the record a dedicated replay of
// that fault alone from cycle zero produces — outcome and first
// divergent commit alike.
func TestCampaignPassMatchesSolo(t *testing.T) {
	if testing.Short() {
		t.Skip("per-fault replays in -short mode")
	}
	o := testOptions(t, 200).withDefaults()
	c, err := newCampaign(o)
	if err != nil {
		t.Fatal(err)
	}
	_, info, _, err := c.goldenRun()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sample(o, info, newPruner(o.Config, c.live, info))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.replay(bg, info, false, s); err != nil {
		t.Fatal(err)
	}
	slots, corrupted := 0, 0
	for i, fs := range s.faults {
		for k, f := range fs {
			solo, err := c.pool.SimulateFaultDetail(o.Program, o.Run, f)
			if err != nil {
				t.Fatalf("solo replay %+v: %v", f, err)
			}
			if got := s.outcomes[i][k]; got != solo {
				t.Errorf("%s %+v: pass trial %+v, solo trial %+v", f.Structure, f, got, solo)
			}
			slots++
			if solo.Corrupted {
				corrupted++
			}
		}
	}
	if corrupted == 0 || corrupted == slots {
		t.Errorf("degenerate outcome mix: %d/%d corrupted", corrupted, slots)
	}
}

// TestCampaignWarmNoGoldenRerun: a warm cache serves the golden result,
// its replay facts and the campaign's outcome table from the blob tier
// — the second campaign simulates nothing (the replay counts in
// Stats.Simulated), not even the golden run the stale-golden check
// re-runs when the outcome table misses.
func TestCampaignWarmNoGoldenRerun(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	dir := t.TempDir()
	o := testOptions(t, 120)
	o.Cache = simcache.New(simcache.Options{Dir: dir})
	cold, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	if o.Cache.Stats().Simulated == 0 {
		t.Fatal("cold campaign simulated nothing")
	}

	o.Cache = simcache.New(simcache.Options{Dir: dir})
	warm, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	if st := o.Cache.Stats(); st.Simulated != 0 {
		t.Errorf("warm campaign simulated %d golden/replay runs, want 0\nstats: %v", st.Simulated, st)
	}
	if warm.String() != cold.String() {
		t.Error("warm report differs from cold")
	}
}

// TestCampaignPartialWarmRecaptures: a campaign whose golden result and
// info come warm from disk but whose outcome table misses (another
// seed) re-runs the golden run in memory to check it against the cached
// info, then renders exactly the report of a cache-free run.
func TestCampaignPartialWarmRecaptures(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	dir := t.TempDir()
	o := testOptions(t, 120)
	o.Cache = simcache.New(simcache.Options{Dir: dir})
	if _, err := Run(bg, o); err != nil {
		t.Fatal(err)
	}

	o.Seed = 2
	o.Cache = simcache.New(simcache.Options{Dir: dir})
	warm, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	// The golden entry is the only disk hit; the new seed's outcome
	// table misses and replays.
	if st := o.Cache.Stats(); st.DiskHits != 1 || st.Simulated == 0 {
		t.Errorf("seed-2 stats %v, want 1 disk hit (the golden entry) and a replay", st)
	}
	o.Cache = nil
	bare, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	if warm.String() != bare.String() {
		t.Errorf("partially warm report differs from cache-free run:\n%s\nvs\n%s", warm, bare)
	}
}

// TestCampaignStaleGoldenInfoFails: cached golden info that the re-run
// golden run contradicts fails the campaign instead of replaying
// against it.
func TestCampaignStaleGoldenInfoFails(t *testing.T) {
	o := testOptions(t, 40)
	o.Cache = simcache.New(simcache.Options{})
	if _, err := Run(bg, o); err != nil {
		t.Fatal(err)
	}
	c := &campaign{o: o, cfgFP: o.Config.Fingerprint(), progFP: "prog:" + o.Program.Fingerprint(), rcFP: o.Run.Fingerprint()}
	g, err := simcache.Do(o.Cache, c.key(goldenKeyPart), goldenCodec, func() (golden, error) {
		t.Fatal("cold campaign stored no golden entry")
		return golden{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh store holding only the golden entry, its digest flipped.
	g.info.Digest ^= 1
	o.Cache = simcache.New(simcache.Options{})
	if _, err := simcache.Do(o.Cache, c.key(goldenKeyPart), goldenCodec, func() (golden, error) { return g, nil }); err != nil {
		t.Fatal(err)
	}

	o.Seed = 2 // a new fault set, so the replay misses and the golden run is re-run
	res, err := Run(bg, o)
	if err == nil {
		t.Fatalf("campaign over stale golden info rendered a report:\n%s", res)
	}
	if !strings.Contains(err.Error(), "disagrees with cached golden info") {
		t.Errorf("error %q is not the re-capture guard's", err)
	}
}

// TestCampaignCancellation: a cancelled context aborts the campaign
// with the context's error.
func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := Run(ctx, testOptions(t, 50)); err == nil {
		t.Fatal("cancelled campaign returned nil error")
	}
}

func TestAllocate(t *testing.T) {
	n := allocate(100, 1, []float64{0.5, 0.3, 0.2})
	if n[0] != 50 || n[1] != 30 || n[2] != 20 {
		t.Fatalf("allocate = %v", n)
	}
	n = allocate(10, 3, []float64{0.94, 0.03, 0.03})
	if n[0] < 9 || n[1] != 3 || n[2] != 3 {
		t.Fatalf("allocate with floor = %v", n)
	}
	// Largest-remainder rounding hands out every trial.
	n = allocate(7, 0, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3})
	if n[0]+n[1]+n[2] != 7 {
		t.Fatalf("allocate dropped trials: %v", n)
	}
}

func TestWilson(t *testing.T) {
	iv := wilson(0, 50)
	if iv.Lo != 0 || iv.Hi <= 0 || iv.Hi > 0.2 {
		t.Errorf("wilson(0,50) = %+v", iv)
	}
	iv = wilson(50, 50)
	if iv.Hi != 1 || iv.Lo >= 1 || iv.Lo < 0.8 {
		t.Errorf("wilson(50,50) = %+v", iv)
	}
	iv = wilson(25, 50)
	if !iv.Contains(0.5) || iv.Lo < 0.35 || iv.Hi > 0.65 {
		t.Errorf("wilson(25,50) = %+v", iv)
	}
	if iv := wilson(0, 0); iv != (Interval{}) {
		t.Errorf("wilson(0,0) = %+v", iv)
	}
}

// TestCampaignDiskFootprintOnePass: a cold campaign with a disk tier
// computes three entries — the golden run, one replay and the campaign
// result aggregated from them — and writes two blobs, the golden entry
// and the outcome table: O(1) in its trial count.
func TestCampaignDiskFootprintOnePass(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	dir := t.TempDir()
	o := testOptions(t, 200)
	o.Cache = simcache.New(simcache.Options{Dir: dir})
	res, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(filepath.Join(dir, simcache.EngineVersion))
	if err != nil {
		t.Fatal(err)
	}
	bins := 0
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".bin" {
			bins++
		}
	}
	t.Logf("%d trials: %d blob files", res.Trials, bins)
	if bins != 2 {
		t.Errorf("%d blob files on disk, want 2 (golden entry + outcome table)", bins)
	}
	if sims := o.Cache.Stats().Simulated; sims != 3 {
		t.Errorf("cold campaign computed %d entries, want 3 (golden run + one replay + campaign result)", sims)
	}
}
