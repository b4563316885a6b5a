// Package ga is a generational genetic-algorithm framework standing in
// for the IBM SNAP tool the paper obtained under NDA. It provides the
// observable behaviour the paper relies on: tournament selection,
// crossover at rate ~0.73 and per-gene mutation at rate ~0.05 (the
// Grefenstette / Srinivas-Patnaik recommended ranges the paper cites),
// elitism, parallel fitness evaluation (the paper ran six simulations in
// parallel), and a convergence-triggered cataclysm that moves the best
// known solution into a fresh random population — the abrupt
// average-fitness drop visible in the paper's Figure 5(b). The paper
// fixes these operator parameters, so they are constants here; a run is
// configured only by its genes, population, generation count, evaluation
// parallelism, progress log and seed.
package ga

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"avfstress/internal/sched"
)

// Gene describes one genome dimension.
type Gene struct {
	Name    string
	Min     float64 // inclusive
	Max     float64 // inclusive
	Integer bool    // values are rounded to integers
}

// quantise snaps v into the gene's domain.
func (g Gene) quantise(v float64) float64 {
	if v < g.Min {
		v = g.Min
	}
	if v > g.Max {
		v = g.Max
	}
	if g.Integer {
		v = math.Round(v)
	}
	return v
}

// Genome is one candidate solution (one value per gene).
type Genome []float64

// Clone returns a copy of the genome.
func (g Genome) Clone() Genome { return append(Genome(nil), g...) }

// Fitness evaluates a genome; larger is better. It must be a pure
// function of the genome for the GA to be deterministic under a seed.
type Fitness func(Genome) (float64, error)

// The operator parameters are the paper's, fixed: a selected pair
// recombines with probability crossoverRate; each gene mutates with
// probability mutationRate; the top elites individuals are copied
// unchanged (clamped to PopSize-1); selection runs tournaments of
// tournamentK; and a cataclysm fires once the population's relative
// fitness spread has stayed below cataclysmSpread for cataclysmPatience
// generations.
const (
	crossoverRate     = 0.73
	mutationRate      = 0.05
	elites            = 2
	tournamentK       = 2
	cataclysmSpread   = 0.02
	cataclysmPatience = 3
)

// Config parameterises a run.
type Config struct {
	Genes       []Gene
	PopSize     int
	Generations int

	// Parallelism bounds concurrent fitness evaluations, run through
	// sched.Each (0 = GOMAXPROCS).
	Parallelism int

	// Logf, when set, receives one line per generation (best/avg/worst
	// fitness and cataclysm events) — the convergence stream surfaced
	// by verbose CLI runs and avfstressd job progress. Logging never
	// affects the search trajectory.
	Logf func(format string, args ...interface{})

	Seed int64
}

func (c Config) withDefaults() Config {
	if c.PopSize <= 0 {
		c.PopSize = 50
	}
	if c.Generations <= 0 {
		c.Generations = 50
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.Genes) == 0 {
		return errors.New("ga: no genes")
	}
	for i, g := range c.Genes {
		if g.Max < g.Min {
			return fmt.Errorf("ga: gene %d (%s): max %v < min %v", i, g.Name, g.Max, g.Min)
		}
	}
	return nil
}

// GenStats summarises one generation.
type GenStats struct {
	Generation int
	Best       float64
	Avg        float64
	Worst      float64
	// Cataclysm marks that a cataclysm was applied after this generation.
	Cataclysm bool
}

// Result is the outcome of a run.
type Result struct {
	// Best is the best genome ever evaluated (cataclysms cannot lose it).
	Best        Genome
	BestFitness float64
	History     []GenStats
	Evaluations int
	Cataclysms  int
}

// Run executes the GA and returns the best solution found. The context
// is checked between generations and between fitness evaluations, so a
// cancellation or deadline stops the search within one generation and
// Run returns the context's error (in-flight evaluations finish first —
// a fitness call is never abandoned midway).
func Run(ctx context.Context, cfg Config, fit Fitness) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if fit == nil {
		return nil, errors.New("ga: nil fitness")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pop := make([]Genome, cfg.PopSize)
	for i := range pop {
		pop[i] = randomGenome(cfg.Genes, rng)
	}

	res := &Result{BestFitness: math.Inf(-1)}
	scores := make([]float64, cfg.PopSize)
	// Elite individuals are copied into the next generation verbatim, and
	// Fitness is contractually pure, so re-evaluating them must return the
	// same value: their scores are carried instead of re-simulated. The
	// carry lives in separate arrays because nextGeneration still selects
	// on this generation's scores while it records the elites' carries.
	carryScore := make([]float64, cfg.PopSize)
	carryKnown := make([]bool, cfg.PopSize)
	stale := 0
	for gen := 0; gen < cfg.Generations; gen++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n, err := evaluate(ctx, pop, scores, carryScore, carryKnown, fit, cfg.Parallelism)
		if err != nil {
			return nil, fmt.Errorf("ga: generation %d: %w", gen, err)
		}
		res.Evaluations += n

		st := summarise(gen, scores)
		bi := bestIndex(scores)
		if scores[bi] > res.BestFitness {
			res.BestFitness = scores[bi]
			res.Best = pop[bi].Clone()
		}

		// Convergence check → cataclysm (skip on the final generation).
		if st.relSpread() < cataclysmSpread {
			stale++
		} else {
			stale = 0
		}
		cataclysm := stale >= cataclysmPatience && gen < cfg.Generations-1
		if cataclysm {
			st.Cataclysm = true
		}
		if cfg.Logf != nil {
			ev := ""
			if st.Cataclysm {
				ev = "  [cataclysm]"
			}
			cfg.Logf("gen %d/%d: best %.4f avg %.4f worst %.4f%s",
				gen+1, cfg.Generations, st.Best, st.Avg, st.Worst, ev)
		}
		res.History = append(res.History, st)
		if cataclysm {
			res.Cataclysms++
			stale = 0
			seed := res.Best.Clone()
			for i := range pop {
				pop[i] = randomGenome(cfg.Genes, rng)
				carryKnown[i] = false
			}
			pop[0] = seed
			carryScore[0], carryKnown[0] = res.BestFitness, true
			continue
		}
		if gen == cfg.Generations-1 {
			break
		}
		pop = nextGeneration(cfg, pop, scores, carryScore, carryKnown, rng)
	}
	return res, nil
}

// relSpread is the population's stddev/|mean| (0 when mean is 0).
func (s GenStats) relSpread() float64 {
	if s.Avg == 0 {
		return 0
	}
	// Approximate spread from the recorded range; cheap and monotone with
	// the true stddev for the purposes of convergence detection.
	return (s.Best - s.Worst) / math.Abs(s.Avg)
}

func summarise(gen int, scores []float64) GenStats {
	st := GenStats{Generation: gen, Best: math.Inf(-1), Worst: math.Inf(1)}
	sum := 0.0
	for _, s := range scores {
		sum += s
		if s > st.Best {
			st.Best = s
		}
		if s < st.Worst {
			st.Worst = s
		}
	}
	st.Avg = sum / float64(len(scores))
	return st
}

func bestIndex(scores []float64) int {
	bi := 0
	for i, s := range scores {
		if s > scores[bi] {
			bi = i
		}
	}
	return bi
}

// evaluate scores the population through sched.Each: at most
// parallelism fitness calls run at once, each on its own index, and a
// panicking fitness fails the generation with a *sched.PanicError
// instead of killing the process. Individuals with a carried score
// (elites, the post-cataclysm seed) are not re-evaluated — fitness
// purity guarantees the identical value — and the returned count covers
// only the evaluations actually performed. The context is checked
// before every fitness call (the "between fitness batches" cancellation
// point), so a cancelled search abandons the rest of the population
// without waiting for it.
func evaluate(ctx context.Context, pop []Genome, scores, carryScore []float64,
	carryKnown []bool, fit Fitness, parallelism int) (int, error) {
	var todo []int
	for i := range pop {
		if carryKnown[i] {
			scores[i] = carryScore[i]
		} else {
			todo = append(todo, i)
		}
	}
	err := sched.Each(ctx, len(todo), parallelism, func(_ context.Context, k int) error {
		i := todo[k]
		s, err := fit(pop[i])
		if err != nil {
			return fmt.Errorf("individual %d: %w", i, err)
		}
		scores[i] = s
		return nil
	})
	return len(todo), err
}

// nextGeneration applies elitism, tournament selection, two-point
// crossover and per-gene mutation. Elite copies record their (already
// evaluated) scores in the carry arrays so the next evaluate pass skips
// them; every freshly bred slot has its carry cleared.
func nextGeneration(cfg Config, pop []Genome, scores, carryScore []float64,
	carryKnown []bool, rng *rand.Rand) []Genome {
	n := len(pop)
	next := make([]Genome, 0, n)
	for i := range carryKnown {
		carryKnown[i] = false
	}

	// Elites, best first.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < min(elites, n-1); i++ {
		bi := i
		for j := i + 1; j < n; j++ {
			if scores[order[j]] > scores[order[bi]] {
				bi = j
			}
		}
		order[i], order[bi] = order[bi], order[i]
		next = append(next, pop[order[i]].Clone())
		carryScore[i], carryKnown[i] = scores[order[i]], true
	}

	sel := func() Genome {
		best := rng.Intn(n)
		for k := 1; k < tournamentK; k++ {
			c := rng.Intn(n)
			if scores[c] > scores[best] {
				best = c
			}
		}
		return pop[best]
	}
	for len(next) < n {
		a, b := sel().Clone(), sel().Clone()
		if rng.Float64() < crossoverRate {
			crossover(a, b, rng)
		}
		mutate(cfg.Genes, a, mutationRate, rng)
		next = append(next, a)
		if len(next) < n {
			mutate(cfg.Genes, b, mutationRate, rng)
			next = append(next, b)
		}
	}
	return next
}

// crossover performs two-point crossover in place (single-point for
// short genomes).
func crossover(a, b Genome, rng *rand.Rand) {
	n := len(a)
	if n < 2 {
		return
	}
	i := rng.Intn(n)
	j := rng.Intn(n)
	if i > j {
		i, j = j, i
	}
	for k := i; k <= j; k++ {
		a[k], b[k] = b[k], a[k]
	}
}

// mutate resets each gene with probability rate to a fresh uniform value
// (SNAP-style random reset) or, half the time, perturbs it by a tenth of
// its range.
func mutate(genes []Gene, g Genome, rate float64, rng *rand.Rand) {
	for i, gene := range genes {
		if rng.Float64() >= rate {
			continue
		}
		if rng.Float64() < 0.5 {
			g[i] = sample(gene, rng)
		} else {
			span := gene.Max - gene.Min
			g[i] = gene.quantise(g[i] + rng.NormFloat64()*span/10)
		}
	}
}

func randomGenome(genes []Gene, rng *rand.Rand) Genome {
	g := make(Genome, len(genes))
	for i, gene := range genes {
		g[i] = sample(gene, rng)
	}
	return g
}

func sample(g Gene, rng *rand.Rand) float64 {
	return g.quantise(g.Min + rng.Float64()*(g.Max-g.Min))
}
