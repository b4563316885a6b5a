package inject

import (
	"context"
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
// protected queues classify as detected (DUE), never SDC, and the
// protected structures contribute nothing to the derated aggregate.
func TestCampaignDetectedTaxonomy(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	o := testOptions(t, 60)
	o.Rates = uarch.EDRRates()
	o.Structures = []uarch.Structure{uarch.ROB, uarch.SQData, uarch.IQ}
	res, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res.Structures {
		protected := o.Rates[sr.Structure] == 0
		if protected && sr.SDC != 0 {
			t.Errorf("%s: %d SDC on a detection-protected structure", sr.Structure, sr.SDC)
		}
		if !protected && sr.Detected != 0 {
			t.Errorf("%s: %d detected on an unprotected structure", sr.Structure, sr.Detected)
		}
	}
	if res.Detected == 0 {
		t.Error("EDR campaign on the ROB found no detected outcomes")
	}
	// ROB and SQ are rate-zero; only the IQ stratum carries derated
	// weight.
	var iq StructureResult
	for _, sr := range res.Structures {
		if sr.Structure == uarch.IQ {
			iq = sr
		}
	}
	if res.DeratedAVF != iq.AVF {
		t.Errorf("derated AVF %.4f != IQ stratum %.4f under EDR weights", res.DeratedAVF, iq.AVF)
	}
}

// TestCampaignByteDeterministic: same seed ⇒ byte-identical report —
// across independent runs, across worker counts, and across a cold and
// a warm disk cache (the warm run must be served from the blob tier
// without a single replay).
func TestCampaignByteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	dir := t.TempDir()
	o := testOptions(t, 200)

	o.Cache = simcache.New(simcache.Options{Dir: dir})
	o.Parallelism = 1
	cold, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	if o.Cache.Stats().Simulated == 0 {
		t.Fatal("cold campaign replayed nothing")
	}

	// Fresh store, same directory: warm from disk, zero replays.
	o.Cache = simcache.New(simcache.Options{Dir: dir})
	o.Parallelism = 4
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

// TestCampaignCheckpointIntervalInvariance: the checkpoint interval is
// a pure replay accelerator — the rendered report must be byte-identical
// with checkpointing disabled, automatic, dense and sparse, and across
// worker counts, with no cache to hide differences behind.
func TestCampaignCheckpointIntervalInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in -short mode")
	}
	o := testOptions(t, 200)
	o.checkpointInterval = -1
	o.Parallelism = 1
	base, err := Run(bg, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		interval int64
		workers  int
	}{{0, 1}, {0, 4}, {1024, 2}, {16384, 4}} {
		o.checkpointInterval = tc.interval
		o.Parallelism = tc.workers
		got, err := Run(bg, o)
		if err != nil {
			t.Fatalf("interval %d workers %d: %v", tc.interval, tc.workers, err)
		}
		if got.String() != base.String() {
			t.Errorf("interval %d workers %d: report differs from checkpoint-free run:\n%s\nvs\n%s",
				tc.interval, tc.workers, got, base)
		}
	}
}

// TestCampaignWarmNoGoldenRerun: a warm cache serves the golden result,
// its replay facts and every slice's outcome table from the blob tier —
// the second campaign simulates nothing (slice replays count in
// Stats.Simulated), even when it asks for a checkpoint interval the cold
// run never captured: the slice grid does not depend on the interval.
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

	for _, interval := range []int64{0, 1024, 16384, -1} {
		o.Cache = simcache.New(simcache.Options{Dir: dir})
		o.checkpointInterval = interval
		warm, err := Run(bg, o)
		if err != nil {
			t.Fatalf("interval %d: %v", interval, err)
		}
		if st := o.Cache.Stats(); st.Simulated != 0 {
			t.Errorf("interval %d: warm campaign simulated %d golden/replay runs, want 0\nstats: %v",
				interval, st.Simulated, st)
		}
		if warm.String() != cold.String() {
			t.Errorf("interval %d: warm report differs from cold", interval)
		}
	}
}

// TestCampaignPartialWarmRecaptures: a campaign whose golden result and
// info come warm from disk but whose slices miss (another seed) re-runs
// the capturing golden run in memory and renders exactly the report of
// a cache-free run.
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
	// The golden entry is the only disk hit; every slice of the new
	// seed misses and replays.
	if st := o.Cache.Stats(); st.DiskHits != 1 || st.Simulated == 0 {
		t.Errorf("seed-2 stats %v, want 1 disk hit (the golden entry) and replayed slices", st)
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

// TestCampaignStaleGoldenInfoFails: cached golden info that the
// re-captured golden run contradicts fails the campaign instead of
// replaying against it.
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

	o.Seed = 2 // new slices, so the checkpoints are re-captured
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

// TestCampaignDiskFootprintPerSlice: a cold campaign with a disk tier
// writes one blob per replay slice plus the golden info — O(slices),
// not O(trials), and no checkpoints (they live in memory only).
func TestCampaignDiskFootprintPerSlice(t *testing.T) {
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
	pool, err := pipe.NewPool(o.Config)
	if err != nil {
		t.Fatal(err)
	}
	_, info, _, err := pool.SimulateGoldenRecorded(o.Program, o.Run, -1, nil)
	if err != nil {
		t.Fatal(err)
	}
	slices := newSliceGrid(o.Config, info).cell(info.WindowStart+info.Cycles-1) + 2 // cells -1..last
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
	t.Logf("%d trials: %d blob files, %d slices", res.Trials, bins, slices)
	if limit := int(slices) + 1; bins > limit {
		t.Errorf("%d blob files on disk, want at most %d (%d slices + golden info)", bins, limit, slices)
	}
	if bins*4 > res.Trials {
		t.Errorf("%d blob files for %d trials: the disk tier is not slice-granular", bins, res.Trials)
	}
	if sims := o.Cache.Stats().Simulated; sims > slices+1 {
		t.Errorf("cold campaign ran %d simulations, want at most %d slices + 1 golden", sims, slices)
	}
}

// TestSliceGridMatchesAutoCheckpoints: the slice grid coincides with
// the automatic checkpoint capture — same spacing after thinning, same
// validity lead, one capture per grid cell — on a short window, on one
// just past 64·1024 cycles (where the first thinning kicks in) and on
// one long enough to thin twice.
func TestSliceGridMatchesAutoCheckpoints(t *testing.T) {
	o := testOptions(t, 1)
	pool, err := pipe.NewPool(o.Config)
	if err != nil {
		t.Fatal(err)
	}
	for _, mi := range []int64{o.Run.MaxInstructions, 27_500, 60_000} {
		rc := pipe.RunConfig{MaxInstructions: mi, WarmupInstructions: o.Run.WarmupInstructions}
		_, info, set, err := pool.SimulateGoldenRecorded(o.Program, rc, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if mi == 27_500 && (info.Cycles <= 64*1024 || info.Cycles > 65*1024) {
			t.Fatalf("%d-instruction window is %d cycles, not just past 64·1024", mi, info.Cycles)
		}
		g := newSliceGrid(o.Config, info)
		t.Logf("%d-cycle window: grid %+v, %d checkpoints", info.Cycles, g, len(set.Checkpoints))
		if g.width != set.Interval || g.lead != set.Lead || g.start != info.WindowStart {
			t.Errorf("%d-cycle window: grid %+v, checkpoint set interval %d lead %d",
				info.Cycles, g, set.Interval, set.Lead)
		}
		if g.cell(info.WindowStart) != -1 || g.cell(info.WindowStart+g.lead) != 0 ||
			g.cell(info.WindowStart+g.lead+g.width) != 1 || (info.Cycles-1)/g.width >= 64 {
			t.Errorf("%d-cycle window: cell boundaries off for grid %+v", info.Cycles, g)
		}
		prev := int64(-1)
		for _, c := range set.Cycles() {
			k := g.cell(c + g.lead)
			if k <= prev {
				t.Errorf("%d-cycle window: capture at %d in cell %d after cell %d", info.Cycles, c, k, prev)
			}
			prev = k
		}
	}
}
