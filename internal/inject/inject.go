// Package inject is the Monte Carlo statistical fault-injection
// campaign engine (DESIGN.md §9): the standard cross-check for an
// ACE-based AVF estimator. A campaign samples single-bit fault targets
// (structure, bit, cycle) uniformly over the bit-cycle space of a
// golden (fault-free) simulation of every SER-tracked structure,
// replays the run deterministically with the faults injected
// (internal/pipe.Pool.SimulateFaultsDetailFrom), classifies every
// trial as masked, SDC or detected, and aggregates per-structure and
// derated AVF estimates with 95% binomial confidence intervals — which
// the ACE-based AVF must fall inside for the estimator to validate.
//
// Campaigns are deterministic end to end: each structure's targets are
// drawn in order from one splitmix64 stream seeded by (Seed,
// structure), replays are pure functions of (config, program, budget,
// fault), and the rendered report is byte-identical across runs and
// cache states.
// Faults are pure observers, so one replay from cycle zero carries
// every unique target of a campaign as an independent watch: a
// campaign is one golden run plus one pass, whose outcome table is
// memoised in internal/simcache keyed by (golden fingerprint, the
// campaign's fault set), so warm re-runs replay nothing (DESIGN.md
// §10).
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
	// Cache, when set, memoises the golden run and the campaign's
	// outcome table; nil replays the campaign.
	Cache *simcache.Store
	// RootCause, when set, attributes every corrupting trial to the
	// program instruction whose value the flipped bit held
	// (internal/rootcause, DESIGN.md §14) and attaches the
	// per-instruction and per-class vulnerability tables to the result.
	// Attribution reuses the first-divergent-commit records every trial
	// replay already produces, so enabling it adds zero replays and
	// outcome tables stay shared with non-attributing campaigns.
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
	// for, and StaticBound the tightened static ACE upper bound: the
	// paper's all-bits bound 1.0 minus that dead fraction.
	Pruned      int
	PruneFrac   float64
	StaticBound float64
	// AVF is the injection-measured vulnerability: the corrupted
	// fraction over replayed trials (SampleAVF) scaled by the live
	// fraction 1−PruneFrac, since replays sample only the live
	// subspace — detection changes the outcome class, not the
	// underlying vulnerability — with its similarly scaled Wilson 95%
	// confidence interval and the golden run's ACE-based AVF beside
	// it.
	AVF       float64
	SampleAVF float64
	CI        Interval
	ACE       float64
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

	// Pruned totals the statically pruned targets across strata and
	// StaticBound is the bit-weighted tightened static ACE upper bound.
	Pruned      int
	StaticBound float64

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
// of every trial target, then one replay from cycle zero carrying every
// unique target. Sampling intersects every target with the statically
// proven dead set (DESIGN.md §12) — capped queue entries, never-popped
// physical registers and recorded dead-definition occupancies —
// classifies those targets as masked analytically with zero replays,
// and re-allocates the freed trial budget across the live subspace, so
// the same budget buys a tighter confidence interval. Pruning changes
// which targets replay, never any replay's outcome. The context is
// checked before each simulation.
func Run(ctx context.Context, o Options) (*Result, error) {
	o = o.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c, err := newCampaign(o)
	if err != nil {
		return nil, err
	}
	golden, info, warm, err := c.goldenRun()
	if err != nil {
		return nil, err
	}
	// Sampling is up-front and single-threaded and the pruner's inputs
	// are static or cached with the golden result, so pruned campaigns
	// stay byte-deterministic across runs and caches.
	pr := newPruner(o.Config, c.live, info)
	s, err := sample(o, info, pr)
	if err != nil {
		return nil, err
	}
	if err := c.replay(ctx, info, warm, s); err != nil {
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

// newCampaign validates defaulted options and prepares a campaign's
// simulator pool, liveness summary and cache-key fingerprints.
func newCampaign(o Options) (*campaign, error) {
	if err := o.Config.Validate(); err != nil {
		return nil, err
	}
	if o.Program == nil {
		return nil, fmt.Errorf("inject: no program")
	}
	pool, err := pipe.NewPool(o.Config)
	if err != nil {
		return nil, err
	}
	return &campaign{
		o:    o,
		pool: pool,
		// Its dead definitions drive the golden run's (cached) interval
		// recording as well as the pruner.
		live:   liveness.Analyze(o.Program, o.Config.Core),
		cfgFP:  o.Config.Fingerprint(),
		progFP: "prog:" + o.Program.Fingerprint(),
		rcFP:   o.Run.Fingerprint(),
	}, nil
}

// key addresses one of the campaign's cache entries: its golden run
// and its outcome table.
func (c *campaign) key(part string) simcache.Key {
	return c.o.Cache.Key(c.cfgFP, c.progFP, c.rcFP, part)
}

// goldenRun returns the fault-free reference run and its replay facts,
// and whether they came from the cache rather than from a run of its
// own. Result and facts are one cache entry, so a warm campaign skips
// the golden re-run entirely.
func (c *campaign) goldenRun() (*avf.Result, pipe.GoldenInfo, bool, error) {
	o := c.o
	warm := true
	g, err := simcache.Do(o.Cache, c.key(goldenKeyPart), goldenCodec, func() (golden, error) {
		warm = false
		res, gi, _, err := c.pool.SimulateGoldenRecorded(o.Program, o.Run, -1, c.live.DeadDefs)
		return golden{res, gi}, err
	})
	if err != nil {
		return nil, g.info, false, fmt.Errorf("inject: golden run: %w", err)
	}
	if g.info.Cycles <= 0 {
		return nil, g.info, false, fmt.Errorf("inject: golden run measured no cycles")
	}
	return g.res, g.info, warm, nil
}

// checkGolden re-runs the golden run and checks it against cached
// golden info: the sampler drew every target from that info, so a
// replay against a golden run that disagrees with it would classify
// faults at cycles the run never had.
func (c *campaign) checkGolden(want pipe.GoldenInfo) error {
	_, gi, _, err := c.pool.SimulateGoldenRecorded(c.o.Program, c.o.Run, -1, nil)
	switch {
	case err != nil:
		return fmt.Errorf("inject: golden re-capture: %w", err)
	case gi.WindowStart != want.WindowStart || gi.Cycles != want.Cycles || gi.Digest != want.Digest:
		return fmt.Errorf("inject: re-captured golden run (window %d+%d, digest %016x) disagrees with cached golden info (window %d+%d, digest %016x)",
			gi.WindowStart, gi.Cycles, gi.Digest, want.WindowStart, want.Cycles, want.Digest)
	}
	return nil
}

// sampled is a campaign's trial plan, per stratum: replayed targets in
// draw order, the pruned count, and the outcome slots the replay fills.
type sampled struct {
	bits     []uint64
	pruned   []int
	faults   [][]pipe.Fault
	outcomes [][]pipe.FaultTrial
}

// sample draws every stratum's targets: the baseline allocation first,
// then the budget freed by pruning re-allocated over the live subspace.
func sample(o Options, info pipe.GoldenInfo, pr *pruner) (*sampled, error) {
	const n = uarch.NumStructures
	s := &sampled{
		bits: make([]uint64, n), pruned: make([]int, n),
		faults: make([][]pipe.Fault, n), outcomes: make([][]pipe.FaultTrial, n),
	}
	var totalBits float64
	for st := range n {
		s.bits[st] = uarch.Bits(o.Config, st)
		totalBits += float64(s.bits[st])
	}
	if totalBits == 0 {
		return nil, fmt.Errorf("inject: campaign structures have no bits")
	}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = float64(s.bits[i]) / totalBits
	}
	alloc := allocate(o.Trials, minPerStructure, weights)
	draw := func(r *rng, st uarch.Structure) pipe.Fault {
		return pipe.Fault{
			Structure: st,
			Bit:       r.next() % s.bits[st],
			Cycle:     info.WindowStart + int64(r.next()%uint64(info.Cycles)),
		}
	}

	// Phase 1: draw every stratum's baseline allocation from its
	// deterministic stream. Statically pruned draws are classified
	// analytically and replay nothing; the rest fill the stratum's
	// replay list in draw order.
	rngs := make([]rng, n)
	freed := 0
	for st := range n {
		rngs[st] = stratumRNG(o.Seed, st)
		s.faults[st] = make([]pipe.Fault, 0, alloc[st])
		for t := 0; t < alloc[st]; t++ {
			f := draw(&rngs[st], st)
			if pr.pruned(f) {
				s.pruned[st]++
				freed++
				continue
			}
			s.faults[st] = append(s.faults[st], f)
		}
	}

	// Phase 2: re-allocate the freed budget across strata in proportion
	// to their live bit counts (largest-remainder again), continuing
	// each stratum's stream with rejection of pruned draws, so the
	// topped-up trials concentrate where uncertainty remains. The
	// attempt bound only guards a pathological all-dead stratum; budget
	// not placeable within it is dropped, deterministically.
	if freed == 0 {
		return s, nil
	}
	w2 := make([]float64, n)
	var tw float64
	for st := range n {
		w2[st] = float64(s.bits[st]) * (1 - pr.staticFrac[st])
		tw += w2[st]
	}
	if tw == 0 {
		return s, nil
	}
	for i := range w2 {
		w2[i] /= tw
	}
	alloc2 := allocate(freed, 0, w2)
	for st := range n {
		s.faults[st] = slices.Grow(s.faults[st], alloc2[st])
		for drawn, att := 0, 0; drawn < alloc2[st] && att < 64*alloc2[st]+64; att++ {
			if f := draw(&rngs[st], st); !pr.pruned(f) {
				s.faults[st] = append(s.faults[st], f)
				drawn++
			}
		}
	}
	return s, nil
}

// replay fills every outcome slot. Every slot becomes one target
// entry; the entries sort by (cycle, structure, bit) and repeated
// targets collapse into one fault, so the unique faults ride one
// replay from cycle zero as independent watches (passOutcomes) — a
// campaign costs about one golden run and one blob, whatever its trial
// count.
func (c *campaign) replay(ctx context.Context, info pipe.GoldenInfo, warmGolden bool, s *sampled) error {
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
	if len(targets) == 0 {
		return nil
	}
	slices.SortFunc(targets, func(a, b target) int {
		return cmp.Or(cmp.Compare(a.f.Cycle, b.f.Cycle), cmp.Compare(a.f.Structure, b.f.Structure), cmp.Compare(a.f.Bit, b.f.Bit))
	})
	unique := make([]pipe.Fault, 0, len(targets))
	for i, e := range targets {
		if i == 0 || e.f != targets[i-1].f {
			unique = append(unique, e.f)
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	trials, err := c.passOutcomes(info, warmGolden, unique)
	if err != nil {
		return err
	}
	// targets holds the unique faults in the same order, once per slot.
	j := 0
	for i, e := range targets {
		if i > 0 && e.f != targets[i-1].f {
			j++
		}
		s.outcomes[e.stratum][e.idx] = trials[j]
	}
	return nil
}

// passOutcomes returns the trial records of a campaign's unique faults:
// its memoised table, keyed by the fault set alone, or (counted in
// Stats.Simulated) one replay from cycle zero carrying them all. When
// the golden entry came warm from the cache, the golden run is re-run
// first and checked against it (checkGolden). The store quarantines and
// replays a table its codec rejects — a legacy or foreign entry.
func (c *campaign) passOutcomes(info pipe.GoldenInfo, warmGolden bool, faults []pipe.Fault) ([]pipe.FaultTrial, error) {
	return simcache.Do(c.o.Cache, c.key("injpass:"+faultSetHash(faults)), sliceCodec(len(faults)), func() ([]pipe.FaultTrial, error) {
		if warmGolden {
			if err := c.checkGolden(info); err != nil {
				return nil, err
			}
		}
		out, err := c.pool.SimulateFaultsDetailFrom(c.o.Program, c.o.Run, nil, faults)
		if err != nil {
			return nil, fmt.Errorf("inject: replay of %d faults: %w", len(faults), err)
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
	}
	var (
		rcTrials  []rootcause.Trial
		rcSampled = map[uarch.Structure]int{}
	)
	for st := range uarch.NumStructures {
		replayed := len(s.outcomes[st])
		sr := StructureResult{
			Structure: st, Bits: s.bits[st],
			Trials: replayed + s.pruned[st], Pruned: s.pruned[st],
			PruneFrac: pr.staticFrac[st], StaticBound: pr.bound(st),
			ACE: golden.AVF[st],
		}
		protected := o.Rates[st] == 0
		for t, trial := range s.outcomes[st] {
			switch {
			case trial.Corrupted && protected:
				sr.Detected++
			case trial.Corrupted:
				sr.SDC++
			default:
				sr.Masked++
			}
			if trial.Corrupted && o.RootCause {
				rcTrials = append(rcTrials, rootcause.Trial{
					Fault: s.faults[st][t], Diverge: trial.Diverge, DUE: protected,
				})
			}
		}
		if o.RootCause {
			rcSampled[st] = len(s.outcomes[st])
		}
		// The estimator samples the live subspace only, so the raw
		// corrupted fraction and its Wilson interval scale by the live
		// fraction.
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
