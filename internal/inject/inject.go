// Package inject is the Monte Carlo statistical fault-injection
// campaign engine (DESIGN.md §9): the standard cross-check for an
// ACE-based AVF estimator. A campaign samples single-bit fault targets
// (structure, bit, cycle) uniformly over the bit-cycle space of a
// golden (fault-free) simulation, replays the run deterministically
// with each fault injected (internal/pipe.RunFault), classifies every
// trial as masked, SDC or detected, and aggregates per-structure and
// derated AVF estimates with 95% binomial confidence intervals — which
// the ACE-based AVF must fall inside for the estimator to validate.
//
// Campaigns are deterministic end to end: targets derive from a
// splitmix64 stream seeded by (Seed, structure, trial index), replays
// are pure functions of (config, program, budget, fault), and the
// rendered report is byte-identical across runs, worker counts and
// cache states. Unique targets group into replay slices — cells of a
// fixed grid over the golden window (slice.go) — and each slice is one
// sched.Each item: one fork-replay of all its faults, resumed
// mid-run from a golden-run checkpoint, whose outcome table is
// memoised in internal/simcache keyed by (golden fingerprint, the
// slice's fault set), so warm re-runs replay nothing (DESIGN.md §10).
package inject

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"avfstress/internal/avf"
	"avfstress/internal/liveness"
	"avfstress/internal/pipe"
	"avfstress/internal/prog"
	"avfstress/internal/report"
	"avfstress/internal/rootcause"
	"avfstress/internal/sched"
	"avfstress/internal/simcache"
	"avfstress/internal/uarch"
)

// minPerStructure floors each structure's trial allocation so small
// structures still get a usable stratum (the aggregate estimator is
// stratified, so allocation affects variance only, not bias).
const minPerStructure = 16

// Options parameterises one campaign.
type Options struct {
	// Config is the microarchitecture under injection.
	Config uarch.Config
	// Program is the workload whose golden run defines the sampling
	// space.
	Program *prog.Program
	// Run budgets the golden run and every replay.
	Run pipe.RunConfig
	// Rates weight the derated aggregate and define the outcome
	// taxonomy: a structure with rate zero is detection-protected (EDR),
	// so its corrupting trials classify as detected (DUE), not SDC. The
	// zero value means uniform 1 unit/bit.
	Rates uarch.FaultRates
	// Trials is the total trial budget, allocated to structures in
	// proportion to their bit counts (default 1000).
	Trials int
	// Seed drives target sampling (default 1).
	Seed int64
	// Structures restricts the campaign (default: every SER-tracked
	// structure).
	Structures []uarch.Structure
	// Parallelism bounds concurrent slice replays, run through
	// sched.Each (0 = GOMAXPROCS).
	Parallelism int
	// Cache, when set, memoises the golden run and one outcome table per
	// replay slice; nil replays every slice.
	Cache *simcache.Store
	// checkpointInterval controls golden-run checkpoint capture for
	// fork-replay: 0 (the default) picks the interval automatically, a
	// positive value checkpoints every that many measured cycles, and a
	// negative value disables checkpointing so every slice replays from
	// cycle zero. Checkpoints only accelerate replays — outcomes, slice
	// cache keys and the rendered report are byte-identical at any
	// setting. It is unexported because no caller needs another value;
	// the in-package tests vary it to check that invariance.
	checkpointInterval int64
	// PruneStatic controls static liveness pruning of the injection
	// space (DESIGN.md §12): 0 (the default) and any positive value
	// enable it, a negative value disables it (the benchmark baseline).
	// When enabled, campaign setup intersects every sampled target with
	// the statically proven dead set — capped queue entries, never-popped
	// physical registers and recorded dead-definition occupancies —
	// classifies those targets as masked analytically with zero
	// replays, and re-allocates the freed trial budget across the live
	// subspace, so the same budget buys a tighter confidence interval. Pruning changes which targets
	// replay, never any replay's outcome; with it disabled the campaign
	// is byte-identical to the legacy sampler.
	PruneStatic int
	// RootCause, when set, attributes every corrupting trial to the
	// program instruction whose value the flipped bit held
	// (internal/rootcause, DESIGN.md §14) and attaches the
	// per-instruction and per-class vulnerability tables to the result.
	// Attribution reuses the first-divergent-commit records every trial
	// replay already produces, so enabling it adds zero replays and
	// slice blobs stay shared with non-attributing campaigns.
	RootCause bool
}

func (o Options) withDefaults() Options {
	var zero uarch.FaultRates
	if o.Rates == zero {
		o.Rates = uarch.UniformRates(1)
	}
	if o.Trials <= 0 {
		o.Trials = 1000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Structures) == 0 {
		o.Structures = make([]uarch.Structure, uarch.NumStructures)
		for s := range o.Structures {
			o.Structures[s] = uarch.Structure(s)
		}
	}
	return o
}

// Interval is a confidence interval.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether x lies inside the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// StructureResult is one campaign stratum.
type StructureResult struct {
	Structure uarch.Structure
	Bits      uint64
	// Trials counts the stratum's trial slots: replayed trials plus
	// statically pruned targets, so SDC+Detected+Masked+Pruned always
	// reconciles with Trials.
	Trials   int
	SDC      int
	Detected int
	Masked   int
	// Pruned counts targets the static liveness filter classified
	// masked analytically (zero replays). PruneFrac is the dead
	// fraction of the stratum's bit-cycle space the estimator corrects
	// for (exactly zero when pruning is disabled), and StaticBound the
	// tightened static ACE upper bound: the paper's all-bits bound 1.0
	// minus the statically proven dead fraction (reported even when
	// pruning is disabled — it is a static fact of the workload).
	Pruned      int
	PruneFrac   float64
	StaticBound float64
	// AVF is the injection-measured vulnerability: the corrupted
	// fraction over replayed trials (SampleAVF) scaled by the live
	// fraction 1−PruneFrac, since replays sample only the live
	// subspace — detection changes the outcome class, not the
	// underlying vulnerability — with its similarly scaled Wilson 95%
	// confidence interval and the golden run's ACE-based AVF beside
	// it. Phase1* split out the outcome counts of the first sampling
	// phase, whose draws are stream-identical to an unpruned
	// campaign's; the pruned-campaign benchmark reconciles them
	// against the baseline's counts.
	AVF       float64
	SampleAVF float64
	CI        Interval
	ACE       float64

	Phase1SDC, Phase1Detected, Phase1Masked int
}

// Result is the outcome of one campaign.
type Result struct {
	Config   string
	Workload string
	Seed     int64
	Trials   int // trial slots: replays plus pruned targets (≥ Options.Trials after flooring)

	// Golden is the fault-free run the campaign validates, GoldenDigest
	// its committed-state digest (the reference of every replay's
	// architectural-state diff) and WindowStart/WindowCycles the sampled
	// cycle space.
	Golden       *avf.Result
	GoldenDigest uint64
	WindowStart  int64
	WindowCycles int64

	Structures []StructureResult

	// AVF is the bit-weighted injection-measured AVF over the campaign's
	// structures with its stratified 95% confidence interval; ACEAVF is
	// the bit-weighted ACE counterpart. Derated* repeat the comparison
	// under the fault-rate weighting (rate×bits per structure).
	AVF        float64
	CI         Interval
	ACEAVF     float64
	DeratedAVF float64
	DeratedCI  Interval
	DeratedACE float64

	SDC, Detected, Masked int

	// Pruned totals the statically pruned targets across strata,
	// StaticBound is the bit-weighted tightened static ACE upper bound
	// and PruneEnabled records whether the filter was active.
	Pruned       int
	StaticBound  float64
	PruneEnabled bool

	// RootCause holds the instruction-level attribution of the
	// campaign's corrupted trials when Options.RootCause was set; nil
	// otherwise.
	RootCause *rootcause.Result
}

// rng is a splitmix64 stream: a fixed, documented generator so
// campaigns are reproducible across platforms and Go versions
// (math/rand's stream is not part of its compatibility promise).
// The full sequential construction — golden-gamma counter plus
// finalizer — is used rather than ad-hoc finalizer hashing of trial
// indices: the finalizer alone over near-identical inputs leaves
// measurable structure in the low bits that the modulo reductions
// consume, enough to push a thousand-trial stratum several sigma off
// its mean.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// stratumRNG returns the sampling stream of one structure's stratum,
// decorrelated from the seed and the structure index by one finalizer
// round each.
func stratumRNG(seed int64, s uarch.Structure) rng {
	r := rng{state: uint64(seed)}
	a := r.next()
	r.state = a ^ (uint64(s)+1)*0xbf58476d1ce4e5b9
	b := r.next()
	return rng{state: a ^ b}
}

// allocate splits the trial budget across structures proportionally to
// weight (largest-remainder rounding, ties broken in structure order),
// then floors every stratum at min. Deterministic.
func allocate(total, min int, weights []float64) []int {
	n := make([]int, len(weights))
	rem := make([]float64, len(weights))
	allocated := 0
	for i, w := range weights {
		exact := float64(total) * w
		n[i] = int(exact)
		rem[i] = exact - float64(n[i])
		allocated += n[i]
	}
	for allocated < total {
		best := -1
		for i := range rem {
			if best < 0 || rem[i] > rem[best] {
				best = i
			}
		}
		n[best]++
		rem[best] = -1
		allocated++
	}
	for i := range n {
		if n[i] < min {
			n[i] = min
		}
	}
	return n
}

// Run executes the campaign: one golden simulation, up-front sampling
// of every trial target, then one fork-replay job per replay slice
// fanned out on internal/sched. The context cancels between slices.
func Run(ctx context.Context, o Options) (*Result, error) {
	o = o.withDefaults()
	if err := o.Config.Validate(); err != nil {
		return nil, err
	}
	if o.Program == nil {
		return nil, fmt.Errorf("inject: no program")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pool, err := pipe.NewPool(o.Config)
	if err != nil {
		return nil, err
	}
	c := &campaign{
		o:    o,
		pool: pool,
		// Unconditional, whatever PruneStatic says: its dead definitions
		// drive the golden run's (cached) interval recording.
		live:   liveness.Analyze(o.Program, o.Config.Core),
		cfgFP:  o.Config.Fingerprint(),
		progFP: "prog:" + o.Program.Fingerprint(),
		rcFP:   o.Run.Fingerprint(),
	}
	golden, info, src, err := c.goldenRun()
	if err != nil {
		return nil, err
	}
	// Sampling is up-front and single-threaded and the pruner's inputs
	// are static or cached with the golden result, so pruned campaigns
	// stay byte-deterministic across runs, worker counts and caches.
	pr := newPruner(o.PruneStatic >= 0, o.Config, c.live, info)
	s, err := sample(o, info, pr)
	if err != nil {
		return nil, err
	}
	if err := c.replay(ctx, info, src, s); err != nil {
		return nil, err
	}
	return aggregateResult(o, golden, info, pr, s), nil
}

// campaign carries one Run's options, simulator pool and content
// addresses through its steps.
type campaign struct {
	o                   Options
	pool                *pipe.Pool
	live                *liveness.Summary
	cfgFP, progFP, rcFP string
}

// key addresses one of the campaign's cache entries: its golden run
// and its slice tables.
func (c *campaign) key(part string) simcache.Key {
	return c.o.Cache.Key(c.cfgFP, c.progFP, c.rcFP, part)
}

// goldenRun returns the fault-free reference run, its replay facts and
// the checkpoint source slices fork from (nil when checkpointing is
// disabled). Result and facts are one cache entry, so a warm campaign
// skips the golden re-run entirely. Checkpoints are never stored: a
// campaign that did not run the golden itself re-captures them on
// demand (ckptSource).
func (c *campaign) goldenRun() (*avf.Result, pipe.GoldenInfo, *ckptSource, error) {
	o := c.o
	var cks *pipe.CheckpointSet
	g, err := simcache.Do(o.Cache, c.key(goldenKeyPart), goldenCodec, func() (golden, error) {
		res, gi, set, err := c.pool.SimulateGoldenRecorded(o.Program, o.Run, o.checkpointInterval, c.live.DeadDefs)
		cks = set
		return golden{res, gi}, err
	})
	if err != nil {
		return nil, g.info, nil, fmt.Errorf("inject: golden run: %w", err)
	}
	if g.info.Cycles <= 0 {
		return nil, g.info, nil, fmt.Errorf("inject: golden run measured no cycles")
	}
	if o.checkpointInterval < 0 {
		return g.res, g.info, nil, nil
	}
	return g.res, g.info, c.ckptSource(g.info, cks), nil
}

// sampled is a campaign's trial plan, per stratum: replayed targets in
// draw order (the first phase1[i] as an unpruned campaign draws them),
// the pruned count, and the outcome slots the slice jobs fill.
type sampled struct {
	bits     []uint64
	pruned   []int
	phase1   []int
	faults   [][]pipe.Fault
	outcomes [][]pipe.FaultTrial
}

// sample draws every stratum's targets: the baseline allocation first,
// then (with pruning) the freed budget re-allocated over the live
// subspace.
func sample(o Options, info pipe.GoldenInfo, pr *pruner) (*sampled, error) {
	n := len(o.Structures)
	s := &sampled{
		bits: make([]uint64, n), pruned: make([]int, n), phase1: make([]int, n),
		faults: make([][]pipe.Fault, n), outcomes: make([][]pipe.FaultTrial, n),
	}
	var totalBits float64
	for i, st := range o.Structures {
		s.bits[i] = uarch.Bits(o.Config, st)
		totalBits += float64(s.bits[i])
	}
	if totalBits == 0 {
		return nil, fmt.Errorf("inject: campaign structures have no bits")
	}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = float64(s.bits[i]) / totalBits
	}
	alloc := allocate(o.Trials, minPerStructure, weights)
	draw := func(r *rng, i int) pipe.Fault {
		return pipe.Fault{
			Structure: o.Structures[i],
			Bit:       r.next() % s.bits[i],
			Cycle:     info.WindowStart + int64(r.next()%uint64(info.Cycles)),
		}
	}

	// Phase 1: draw every stratum's baseline allocation from its
	// deterministic stream. Statically pruned draws are classified
	// analytically and replay nothing; the rest fill the stratum's
	// replay list in draw order. With pruning disabled this phase is
	// the legacy sampler verbatim — same streams, same targets, same
	// order.
	rngs := make([]rng, n)
	freed := 0
	for i, st := range o.Structures {
		rngs[i] = stratumRNG(o.Seed, st)
		s.faults[i] = make([]pipe.Fault, 0, alloc[i])
		for t := 0; t < alloc[i]; t++ {
			f := draw(&rngs[i], i)
			if pr.pruned(f) {
				s.pruned[i]++
				freed++
				continue
			}
			s.faults[i] = append(s.faults[i], f)
		}
		s.phase1[i] = len(s.faults[i])
	}

	// Phase 2: re-allocate the freed budget across strata in proportion
	// to their live bit counts (largest-remainder again), continuing
	// each stratum's stream with rejection of pruned draws, so the
	// topped-up trials concentrate where uncertainty remains. The
	// attempt bound only guards a pathological all-dead stratum; budget
	// not placeable within it is dropped, deterministically.
	if !pr.enabled || freed == 0 {
		return s, nil
	}
	w2 := make([]float64, n)
	var tw float64
	for i, st := range o.Structures {
		w2[i] = float64(s.bits[i]) * (1 - pr.staticFrac[st])
		tw += w2[i]
	}
	if tw == 0 {
		return s, nil
	}
	for i := range w2 {
		w2[i] /= tw
	}
	alloc2 := allocate(freed, 0, w2)
	for i := range o.Structures {
		s.faults[i] = slices.Grow(s.faults[i], alloc2[i])
		for drawn, att := 0, 0; drawn < alloc2[i] && att < 64*alloc2[i]+64; att++ {
			if f := draw(&rngs[i], i); !pr.pruned(f) {
				s.faults[i] = append(s.faults[i], f)
				drawn++
			}
		}
	}
	return s, nil
}

// replay fills every outcome slot. Every slot becomes one target
// entry; the entries sort by (cycle, structure, bit), repeated targets
// collapse into one fault while walking them, and the unique faults
// split at slice boundaries, each slice one sched.Each item
// (sliceOutcomes) — so a thousand-trial campaign pays for a handful of
// partial replays and blobs instead of a thousand of each.
func (c *campaign) replay(ctx context.Context, info pipe.GoldenInfo, src *ckptSource, s *sampled) error {
	type target struct {
		f            pipe.Fault
		stratum, idx int
	}
	n := 0
	for _, fs := range s.faults {
		n += len(fs)
	}
	targets := make([]target, 0, n)
	for i, fs := range s.faults {
		s.outcomes[i] = make([]pipe.FaultTrial, len(fs))
		for t, f := range fs {
			targets = append(targets, target{f, i, t})
		}
	}
	slices.SortFunc(targets, func(a, b target) int {
		return cmp.Or(cmp.Compare(a.f.Cycle, b.f.Cycle), cmp.Compare(a.f.Structure, b.f.Structure), cmp.Compare(a.f.Bit, b.f.Bit))
	})

	type slice struct {
		faults  []pipe.Fault
		entries []target
	}
	grid := newSliceGrid(c.o.Config, info)
	unique := make([]pipe.Fault, 0, len(targets))
	var work []slice
	for lo := 0; lo < len(targets); {
		hi, cell, first := lo, grid.cell(targets[lo].f.Cycle), len(unique)
		for ; hi < len(targets) && grid.cell(targets[hi].f.Cycle) == cell; hi++ {
			if hi == lo || targets[hi].f != targets[hi-1].f {
				unique = append(unique, targets[hi].f)
			}
		}
		work = append(work, slice{unique[first:len(unique):len(unique)], targets[lo:hi]})
		lo = hi
	}
	return sched.Each(ctx, len(work), c.o.Parallelism, func(_ context.Context, k int) error {
		sl := work[k]
		// Keyed by fault set, not cell or fork point: campaigns share a
		// slice exactly when they would replay the same faults.
		trials, err := c.sliceOutcomes(c.key("injslice:"+faultSetHash(sl.faults)), src, sl.faults)
		if err != nil {
			return err
		}
		// Slices partition the targets: items write disjoint slots.
		// entries holds faults in the same order, once per slot.
		j := 0
		for i, e := range sl.entries {
			if i > 0 && e.f != sl.entries[i-1].f {
				j++
			}
			s.outcomes[e.stratum][e.idx] = trials[j]
		}
		return nil
	})
}

// sliceOutcomes returns one slice's trial records: its memoised table,
// or (counted in Stats.Simulated) one replay carrying all its faults as
// independent watches, forked from the latest checkpoint valid for the
// earliest. The store quarantines and replays a table its codec
// rejects — a legacy or foreign entry.
func (c *campaign) sliceOutcomes(key simcache.Key, src *ckptSource, faults []pipe.Fault) ([]pipe.FaultTrial, error) {
	return simcache.Do(c.o.Cache, key, sliceCodec(len(faults)), func() ([]pipe.FaultTrial, error) {
		ck, err := src.checkpointFor(faults[0].Cycle)
		if err != nil {
			return nil, err
		}
		out, err := c.pool.SimulateFaultsDetailFrom(c.o.Program, c.o.Run, ck, faults)
		if err != nil {
			return nil, fmt.Errorf("inject: slice replay from cycle %d: %w", faults[0].Cycle, err)
		}
		return out, nil
	})
}

// aggregateResult folds the per-trial outcomes into the campaign result:
// per-stratum counts, Wilson intervals, the bit-weighted and
// rate-derated aggregates, and (when requested) the root-cause
// attribution tables. Pure, so the report depends only on the outcomes,
// never on how they were computed or served.
func aggregateResult(o Options, golden *avf.Result, info pipe.GoldenInfo, pr *pruner, s *sampled) *Result {
	res := &Result{
		Config:       golden.Config,
		Workload:     golden.Workload,
		Seed:         o.Seed,
		Golden:       golden,
		GoldenDigest: info.Digest,
		WindowStart:  info.WindowStart,
		WindowCycles: info.Cycles,
		PruneEnabled: pr.enabled,
	}
	var (
		rcTrials  []rootcause.Trial
		rcSampled = map[uarch.Structure]int{}
	)
	for i, st := range o.Structures {
		replayed := len(s.outcomes[i])
		sr := StructureResult{
			Structure: st, Bits: s.bits[i],
			Trials: replayed + s.pruned[i], Pruned: s.pruned[i],
			PruneFrac: pr.frac(st), StaticBound: pr.bound(st),
			ACE: golden.AVF[st],
		}
		protected := o.Rates[st] == 0
		for t, trial := range s.outcomes[i] {
			n, p1 := &sr.Masked, &sr.Phase1Masked
			switch {
			case trial.Corrupted && protected:
				n, p1 = &sr.Detected, &sr.Phase1Detected
			case trial.Corrupted:
				n, p1 = &sr.SDC, &sr.Phase1SDC
			}
			*n++
			if t < s.phase1[i] {
				*p1++
			}
			if trial.Corrupted && o.RootCause {
				rcTrials = append(rcTrials, rootcause.Trial{
					Fault: s.faults[i][t], Diverge: trial.Diverge, DUE: protected,
				})
			}
		}
		if o.RootCause {
			rcSampled[st] = len(s.outcomes[i])
		}
		// The estimator samples the live subspace only, so the raw
		// corrupted fraction and its Wilson interval scale by the live
		// fraction. With pruning disabled the fraction is exactly zero
		// and the multiplications by 1.0 are IEEE-exact identities —
		// the legacy numbers, bit for bit.
		vuln := sr.SDC + sr.Detected
		liveFrac := 1 - sr.PruneFrac
		if replayed > 0 {
			sr.SampleAVF = float64(vuln) / float64(replayed)
			sr.AVF = liveFrac * sr.SampleAVF
			w := wilson(vuln, replayed)
			sr.CI = Interval{Lo: liveFrac * w.Lo, Hi: liveFrac * w.Hi}
		}
		res.Structures = append(res.Structures, sr)
		res.Trials += sr.Trials
		res.SDC += sr.SDC
		res.Detected += sr.Detected
		res.Masked += sr.Masked
		res.Pruned += sr.Pruned
	}
	res.AVF, res.CI, res.ACEAVF = res.aggregate(func(sr StructureResult) float64 {
		return float64(sr.Bits)
	})
	res.DeratedAVF, res.DeratedCI, res.DeratedACE = res.aggregate(func(sr StructureResult) float64 {
		return o.Rates[sr.Structure] * float64(sr.Bits)
	})
	if totalW := float64(res.TotalBits()); totalW > 0 {
		for _, sr := range res.Structures {
			res.StaticBound += float64(sr.Bits) / totalW * sr.StaticBound
		}
	}
	if o.RootCause {
		res.RootCause = rootcause.Aggregate(o.Program, o.Config, rcTrials, rcSampled)
	}
	return res
}

// aggregate combines the strata under the given weighting into the
// weighted AVF estimate, its stratified 95% confidence interval, and
// the weighted ACE counterpart.
func (r *Result) aggregate(weight func(StructureResult) float64) (est float64, ci Interval, ace float64) {
	var totalW float64
	for _, sr := range r.Structures {
		totalW += weight(sr)
	}
	if totalW == 0 {
		return 0, Interval{}, 0
	}
	var v float64 // variance of the stratified estimator
	for _, sr := range r.Structures {
		w := weight(sr) / totalW
		est += w * sr.AVF
		ace += w * sr.ACE
		// Pruned slots carry no sampling variance (they are analytic
		// constants), so each stratum contributes the binomial variance
		// of its replayed trials scaled by the squared live fraction.
		// With pruning disabled both factors are exactly 1.0 and this
		// is the legacy expression bit for bit.
		if n := sr.Trials - sr.Pruned; n > 0 {
			liveFrac := 1 - sr.PruneFrac
			v += w * w * liveFrac * liveFrac * sr.SampleAVF * (1 - sr.SampleAVF) / float64(n)
		}
	}
	return est, normalCI(est, v), ace
}

// TotalBits returns the campaign's sampled bit count.
func (r *Result) TotalBits() uint64 {
	var total uint64
	for _, sr := range r.Structures {
		total += sr.Bits
	}
	return total
}

// Rows renders the campaign as injection-table rows: one per structure
// (campaign order) plus the bit-weighted "overall" aggregate, whose
// outcome counts reconcile exactly with its AVF column. The
// rate-derated aggregate reweights the same trials per structure, so
// its value cannot be recomputed from pooled counts — String reports
// it as a separate line instead of a row with contradictory columns.
func (r *Result) Rows() []report.InjectionRow {
	rows := make([]report.InjectionRow, 0, len(r.Structures)+1)
	for _, sr := range r.Structures {
		rows = append(rows, report.InjectionRow{
			Label: sr.Structure.String(), Bits: sr.Bits, Trials: sr.Trials,
			SDC: sr.SDC, Detected: sr.Detected, Masked: sr.Masked, Pruned: sr.Pruned,
			AVF: sr.AVF, Lo: sr.CI.Lo, Hi: sr.CI.Hi, ACE: sr.ACE,
		})
	}
	rows = append(rows, report.InjectionRow{
		Label: "overall", Bits: r.TotalBits(), Trials: r.Trials,
		SDC: r.SDC, Detected: r.Detected, Masked: r.Masked, Pruned: r.Pruned,
		AVF: r.AVF, Lo: r.CI.Lo, Hi: r.CI.Hi, ACE: r.ACEAVF,
	})
	return rows
}

// DeratedLine renders the rate-weighted comparison as one line.
func (r *Result) DeratedLine() string {
	return fmt.Sprintf("derated (rate-weighted): AVF %.4f [%.4f, %.4f] vs ACE %.4f",
		r.DeratedAVF, r.DeratedCI.Lo, r.DeratedCI.Hi, r.DeratedACE)
}

// PruneLine renders the static-pruning summary as one stats line:
// pruned target counts (total, then per structure with a nonzero
// count) and the bit-weighted tightened static ACE upper bound.
func (r *Result) PruneLine() string {
	if !r.PruneEnabled {
		return "prune: disabled"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "prune: targets=%d/%d bound=%.4f", r.Pruned, r.Trials, r.StaticBound)
	for _, sr := range r.Structures {
		if sr.Pruned > 0 {
			fmt.Fprintf(&b, " %s=%d", sr.Structure, sr.Pruned)
		}
	}
	return b.String()
}

// String renders the campaign report.
func (r *Result) String() string {
	var b strings.Builder
	title := fmt.Sprintf("Injection campaign — %s on %s (%d trials, seed %d)",
		r.Config, r.Workload, r.Trials, r.Seed)
	b.WriteString(report.InjectionTable(title, r.Rows()))
	fmt.Fprintf(&b, "%s\n%s\ngolden: %d instrs, %d cycles, digest %016x\n",
		r.PruneLine(), r.DeratedLine(), r.Golden.Instructions, r.WindowCycles, r.GoldenDigest)
	if r.RootCause != nil {
		b.WriteString(r.RootCause.String())
	}
	return b.String()
}
