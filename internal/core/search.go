// Package core implements the paper's primary contribution: the
// automated AVF-stressmark generation methodology. It wires the genetic
// algorithm (internal/ga) to the code generator (internal/codegen) and
// the AVF simulator (internal/pipe + internal/cache), exactly as in the
// paper's Figure 2:
//
//	GA knobs → code generator → executable → AVF simulator → fitness → GA
//
// A Search adapts automatically to the microarchitecture (structure
// sizes parameterise the gene ranges and the generator) and to the
// circuit-level fault rates (which enter only through the fitness), which
// is the flexibility the paper demonstrates with its RHC, EDR and
// Configuration A studies.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"avfstress/internal/avf"
	"avfstress/internal/codegen"
	"avfstress/internal/ga"
	"avfstress/internal/pipe"
	"avfstress/internal/prog"
	"avfstress/internal/sched"
	"avfstress/internal/simcache"
	"avfstress/internal/uarch"
)

// gene indices (order of Genes).
const (
	gLoopSize = iota
	gNumLoads
	gNumStores
	gNumIndepArith
	gMissDependent
	gAvgChainLength
	gDepDistance
	gFracLongLatency
	gFracRegReg
	gSeed
	gL2Hit
	numGenes
)

// Genes returns the GA search space for a configuration. Ranges are
// derived from the structure sizes so the methodology adapts to the
// microarchitecture, mirroring §IV-B.
func Genes(cfg uarch.Config) []ga.Gene {
	maxLoop := float64(int(codegen.MaxLoopFactor * float64(cfg.Core.ROBEntries)))
	halfLoop := maxLoop / 2
	return []ga.Gene{
		gLoopSize:        {Name: "LoopSize", Min: 5, Max: maxLoop, Integer: true},
		gNumLoads:        {Name: "NumLoads", Min: 1, Max: halfLoop, Integer: true},
		gNumStores:       {Name: "NumStores", Min: 1, Max: halfLoop, Integer: true},
		gNumIndepArith:   {Name: "NumIndepArith", Min: 0, Max: 16, Integer: true},
		gMissDependent:   {Name: "MissDependent", Min: 0, Max: float64(cfg.Core.IQEntries), Integer: true},
		gAvgChainLength:  {Name: "AvgChainLength", Min: 0, Max: 16},
		gDepDistance:     {Name: "DepDistance", Min: 1, Max: codegen.MaxDepDistance, Integer: true},
		gFracLongLatency: {Name: "FracLongLatency", Min: 0, Max: 1},
		gFracRegReg:      {Name: "FracRegReg", Min: 0, Max: 1},
		gSeed:            {Name: "Seed", Min: 0, Max: 1023, Integer: true},
		gL2Hit:           {Name: "L2Hit", Min: 0, Max: 1, Integer: true},
	}
}

// KnobsFromGenome decodes a genome into (un-normalised) generator knobs.
func KnobsFromGenome(g ga.Genome) codegen.Knobs {
	return codegen.Knobs{
		LoopSize:        int(g[gLoopSize]),
		NumLoads:        int(g[gNumLoads]),
		NumStores:       int(g[gNumStores]),
		NumIndepArith:   int(g[gNumIndepArith]),
		MissDependent:   int(g[gMissDependent]),
		AvgChainLength:  g[gAvgChainLength],
		DepDistance:     int(g[gDepDistance]),
		FracLongLatency: g[gFracLongLatency],
		FracRegReg:      g[gFracRegReg],
		Seed:            int64(g[gSeed]),
		L2Hit:           g[gL2Hit] >= 0.5,
	}
}

// SearchSpec parameterises a stressmark search.
type SearchSpec struct {
	// Config is the target microarchitecture.
	Config uarch.Config
	// Rates are the circuit-level fault rates (default uniform 1).
	Rates uarch.FaultRates
	// Weights combine the class SERs into the fitness.
	Weights avf.Weights

	// Eval budgets one fitness simulation; Final budgets the closing
	// evaluation of the best solution (defaults derived from the config:
	// warmup covers an L2 fill, measurement covers two region sweeps).
	Eval  pipe.RunConfig
	Final pipe.RunConfig

	// GA controls the search (Genes are filled in by Search).
	GA ga.Config

	// Logf, when set, receives search progress lines (one per GA
	// generation: best/avg fitness and cataclysm events). GA.Logf, when
	// set directly, wins.
	Logf func(format string, args ...interface{})

	// Cache optionally memoises candidate simulations content-addressed
	// by (engine version, config, knobs, budget), sharing them across
	// searches, GA generations and — with a disk tier — processes. Nil
	// disables sharing; results are bit-identical either way.
	Cache *simcache.Store
}

// DefaultEvalBudget sizes a fitness run for cfg: warmup long enough to
// fill the L2 once, measurement long enough to sweep the chase region.
func DefaultEvalBudget(cfg uarch.Config) pipe.RunConfig {
	loop := int64(cfg.Core.ROBEntries) // typical loop size
	l2Lines := int64(cfg.Mem.L2.NumLines())
	warm := l2Lines * loop
	measure := 2 * l2Lines * loop
	return pipe.RunConfig{MaxInstructions: warm + measure, WarmupInstructions: warm}
}

func (s SearchSpec) withDefaults() SearchSpec {
	var zero uarch.FaultRates
	if s.Rates == zero {
		s.Rates = uarch.UniformRates(1)
	}
	if s.Weights == (avf.Weights{}) {
		s.Weights = avf.DefaultWeights()
	}
	if s.Eval.MaxInstructions == 0 {
		s.Eval = DefaultEvalBudget(s.Config)
	}
	if s.Final.MaxInstructions == 0 {
		s.Final = s.Eval
		s.Final.MaxInstructions *= 2
	}
	if s.GA.PopSize == 0 {
		s.GA.PopSize = 20
	}
	if s.GA.Generations == 0 {
		s.GA.Generations = 20
	}
	return s
}

// SearchResult is the outcome of a stressmark search.
type SearchResult struct {
	// Knobs are the normalised knob settings of the best solution
	// (the paper's Figure 5a / 8c / 8d / 9b tables).
	Knobs codegen.Knobs
	// Program is the generated stressmark.
	Program *prog.Program
	// Result is the final (long) evaluation of the stressmark.
	Result *avf.Result
	// Fitness is the final evaluation's fitness value.
	Fitness float64
	// History is the per-generation fitness trace (Figure 5b).
	History []ga.GenStats
	// Evaluations counts fitness simulations actually run (memoised
	// duplicates excluded); FailedEvals counts candidates whose
	// simulation failed and were culled with fitness 0.
	Evaluations int64
	FailedEvals int64
	Cataclysms  int
}

// Search runs the full methodology of Figure 2 and returns the
// stressmark for the spec's microarchitecture and fault rates. The
// context cancels the search between simulations (the GA checks it
// between generations and fitness evaluations); a cancelled Search
// returns the context's error and leaves only complete, valid entries
// in the spec's cache.
func Search(ctx context.Context, spec SearchSpec) (*SearchResult, error) {
	spec = spec.withDefaults()
	if err := spec.Config.Validate(); err != nil {
		return nil, err
	}
	gacfg := spec.GA
	gacfg.Genes = Genes(spec.Config)
	if gacfg.Logf == nil {
		gacfg.Logf = spec.Logf
	}

	ev, err := NewEvaluator(spec.Config)
	if err != nil {
		return nil, err
	}
	ev.WithCache(spec.Cache)
	// memo computes each distinct candidate once; identical candidates
	// evaluated concurrently wait on that computation instead of
	// simulating and counting again, so Evaluations is exact at any GA
	// parallelism.
	var (
		memo  sched.Flight[codegen.Knobs, float64]
		evals atomic.Int64
		fails atomic.Int64
	)
	fitness := func(g ga.Genome) (float64, error) {
		k := KnobsFromGenome(g).Normalize(spec.Config)
		return memo.Do(k, func() (float64, error) {
			f, err := ev.EvaluateKnobs(ctx, spec.Rates, spec.Weights, k, spec.Eval)
			if err != nil {
				// Cancellation is not a property of the candidate:
				// propagate it instead of culling (the flight never
				// memoises an error, so nothing stale is left behind).
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return 0, err
				}
				// Cull infeasible candidates instead of aborting the search.
				fails.Add(1)
				f = 0
			}
			// Count distinct candidates (process-local memo misses)
			// whether the simulation ran or was served by the shared
			// cache: the number is then a pure function of the GA
			// trajectory, so search reports stay byte-identical across
			// cold and warm caches and worker counts.
			evals.Add(1)
			return f, nil
		})
	}

	gres, err := ga.Run(ctx, gacfg, fitness)
	if err != nil {
		return nil, err
	}
	best := KnobsFromGenome(gres.Best).Normalize(spec.Config)
	p, best, err := codegen.Generate(spec.Config, best, 1<<40)
	if err != nil {
		return nil, fmt.Errorf("core: regenerating best solution: %w", err)
	}
	res, err := ev.SimulateKnobs(ctx, best, spec.Final)
	if err != nil {
		return nil, fmt.Errorf("core: final evaluation: %w", err)
	}
	return &SearchResult{
		Knobs:       best,
		Program:     p,
		Result:      res,
		Fitness:     res.Fitness(spec.Config, spec.Rates, spec.Weights),
		History:     gres.History,
		Evaluations: evals.Load(),
		FailedEvals: fails.Load(),
		Cataclysms:  gres.Cataclysms,
	}, nil
}

// Evaluator is the pooled fitness path for one configuration: candidate
// programs are simulated on recycled pipelines (pipe.Pool), so a GA
// search's thousands of evaluations reuse one set of simulator
// allocations per worker instead of rebuilding ROB, checkpoint matrix,
// register file and cache hierarchy every time. Safe for concurrent use.
type Evaluator struct {
	cfg   uarch.Config
	cfgFP string
	pool  *pipe.Pool
	cache *simcache.Store
}

// NewEvaluator validates cfg once and returns a pooled evaluator for it.
func NewEvaluator(cfg uarch.Config) (*Evaluator, error) {
	pool, err := pipe.NewPool(cfg)
	if err != nil {
		return nil, err
	}
	return &Evaluator{cfg: cfg, cfgFP: cfg.Fingerprint(), pool: pool}, nil
}

// WithCache routes the evaluator's simulations through the given store
// (nil disables memoisation) and returns the evaluator.
func (e *Evaluator) WithCache(s *simcache.Store) *Evaluator {
	e.cache = s
	return e
}

// SimulateKnobs returns the simulation result for one candidate,
// content-addressed by (config, knobs, budget): on a cache hit the
// generation and simulation are both skipped, and concurrent identical
// candidates (quantised-gene collisions within a generation) simulate
// once. The context is checked before the (uninterruptible) simulation
// starts — a cancelled evaluation returns the context's error and
// stores nothing.
func (e *Evaluator) SimulateKnobs(ctx context.Context, k codegen.Knobs, rc pipe.RunConfig) (*avf.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := e.cache.Key(e.cfgFP, "knobs:"+k.Fingerprint(), rc.Fingerprint())
	return simcache.Do(e.cache, key, simcache.Results, func() (*avf.Result, error) {
		p, _, err := codegen.Generate(e.cfg, k, 1<<40)
		if err != nil {
			return nil, err
		}
		return e.pool.Simulate(p, rc)
	})
}

// EvaluateKnobs generates and simulates one candidate on a pooled
// pipeline and returns its fitness.
func (e *Evaluator) EvaluateKnobs(ctx context.Context, rates uarch.FaultRates, w avf.Weights,
	k codegen.Knobs, rc pipe.RunConfig) (float64, error) {
	res, err := e.SimulateKnobs(ctx, k, rc)
	if err != nil {
		return 0, err
	}
	return res.Fitness(e.cfg, rates, w), nil
}
