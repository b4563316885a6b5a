package ga

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"avfstress/internal/sched"
)

func genes(n int) []Gene {
	gs := make([]Gene, n)
	for i := range gs {
		gs[i] = Gene{Name: "g", Min: 0, Max: 1}
	}
	return gs
}

// sphere is a smooth test objective maximised at the centre (0.5, ...).
func sphere(g Genome) (float64, error) {
	s := 0.0
	for _, v := range g {
		d := v - 0.5
		s += d * d
	}
	return -s, nil
}

func TestValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}, sphere); err == nil {
		t.Error("empty gene list accepted")
	}
	if _, err := Run(context.Background(), Config{Genes: []Gene{{Min: 2, Max: 1}}}, sphere); err == nil {
		t.Error("inverted gene range accepted")
	}
	if _, err := Run(context.Background(), Config{Genes: genes(2)}, nil); err == nil {
		t.Error("nil fitness accepted")
	}
}

// expectedEvaluations reconstructs how many fitness calls a run must
// have made: the full population in generation 0, then the
// population minus the carried individuals — the elites, or just the
// seeded best after a cataclysm — in every later generation.
func expectedEvaluations(popSize, carried int, history []GenStats) int {
	want := popSize
	for i := 1; i < len(history); i++ {
		if history[i-1].Cataclysm {
			want += popSize - 1
		} else {
			want += popSize - carried
		}
	}
	return want
}

func TestSphereConverges(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Genes: genes(6), PopSize: 40, Generations: 40, Seed: 7,
	}, sphere)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness < -0.02 {
		t.Errorf("best fitness %f, want ≥ -0.02 (near the optimum)", res.BestFitness)
	}
	for _, v := range res.Best {
		if math.Abs(v-0.5) > 0.15 {
			t.Errorf("gene %f far from optimum 0.5", v)
		}
	}
	if want := expectedEvaluations(40, 2, res.History); res.Evaluations != want {
		t.Errorf("evaluations = %d, want %d (elite scores carry over)", res.Evaluations, want)
	}
}

// TestElitesAreNotReEvaluated is the regression test for elite score
// carrying: with a deterministic fitness the elites' values are known, so
// a run of G generations must cost elites×(G-1) fewer evaluations than
// the naive P×G (absent cataclysms), and the count must agree with the
// number of fitness invocations actually observed.
func TestElitesAreNotReEvaluated(t *testing.T) {
	const pop, gens = 12, 10
	calls := 0
	counted := func(g Genome) (float64, error) {
		calls++
		return sphere(g)
	}
	res, err := Run(context.Background(), Config{
		Genes: genes(5), PopSize: pop, Generations: gens, Seed: 21,
		Parallelism: 1,
	}, counted)
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Evaluations {
		t.Errorf("observed %d fitness calls, result reports %d", calls, res.Evaluations)
	}
	if want := expectedEvaluations(pop, elites, res.History); res.Evaluations != want {
		t.Errorf("evaluations = %d, want %d", res.Evaluations, want)
	}
	if res.Evaluations >= pop*gens {
		t.Errorf("evaluations = %d, want fewer than the naive %d", res.Evaluations, pop*gens)
	}
	// The carried scores must be the values the fitness would return:
	// the run's trajectory (and best) matches a second identical run.
	res2, err := Run(context.Background(), Config{
		Genes: genes(5), PopSize: pop, Generations: gens, Seed: 21,
		Parallelism: 1,
	}, sphere)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness != res2.BestFitness {
		t.Errorf("carry changed the outcome: %f vs %f", res.BestFitness, res2.BestFitness)
	}
	for i, h := range res.History {
		if h != res2.History[i] {
			t.Errorf("generation %d stats diverge: %+v vs %+v", i, h, res2.History[i])
		}
	}
}

func TestOneMaxWithIntegerGenes(t *testing.T) {
	gs := make([]Gene, 10)
	for i := range gs {
		gs[i] = Gene{Min: 0, Max: 1, Integer: true}
	}
	onemax := func(g Genome) (float64, error) {
		s := 0.0
		for _, v := range g {
			s += v
		}
		return s, nil
	}
	res, err := Run(context.Background(), Config{Genes: gs, PopSize: 30, Generations: 30, Seed: 3}, onemax)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness < 9.5 {
		t.Errorf("onemax best %f, want 10", res.BestFitness)
	}
}

func TestBestSoFarIsMonotone(t *testing.T) {
	res, err := Run(context.Background(), Config{Genes: genes(4), PopSize: 20, Generations: 25, Seed: 11}, sphere)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(-1)
	for _, h := range res.History {
		if h.Best < best-1e-9 && !h.Cataclysm {
			// Elitism carries the best individual, so the per-generation
			// best never regresses except right after a cataclysm (when
			// the population is re-randomised around the saved best).
			t.Errorf("generation %d best %f regressed below %f", h.Generation, h.Best, best)
		}
		if h.Best > best {
			best = h.Best
		}
	}
	if res.BestFitness < best-1e-9 {
		t.Error("result best is below the history best")
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	run := func() *Result {
		r, err := Run(context.Background(), Config{Genes: genes(5), PopSize: 16, Generations: 12, Seed: 99, Parallelism: 4}, sphere)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.BestFitness != b.BestFitness {
		t.Errorf("same seed, different best: %f vs %f", a.BestFitness, b.BestFitness)
	}
	for i := range a.Best {
		if a.Best[i] != b.Best[i] {
			t.Fatal("same seed, different genome")
		}
	}
	c, err := Run(context.Background(), Config{Genes: genes(5), PopSize: 16, Generations: 12, Seed: 100}, sphere)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Best {
		if a.Best[i] != c.Best[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical genomes (suspicious)")
	}
}

func TestCataclysmTriggersOnConvergence(t *testing.T) {
	// A constant fitness landscape converges immediately: the spread is 0
	// from generation 0, so a cataclysm must fire after the patience
	// window.
	flat := func(Genome) (float64, error) { return 1, nil }
	res, err := Run(context.Background(), Config{
		Genes: genes(3), PopSize: 10, Generations: 20, Seed: 5,
	}, flat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cataclysms == 0 {
		t.Error("no cataclysm on a fully converged population")
	}
	marked := 0
	for _, h := range res.History {
		if h.Cataclysm {
			marked++
		}
	}
	if marked != res.Cataclysms {
		t.Errorf("history marks %d cataclysms, result says %d", marked, res.Cataclysms)
	}
}

func TestCataclysmKeepsBest(t *testing.T) {
	// Even across cataclysms, the returned best must be the best ever.
	// The landscape is flat except for one early lucky individual that
	// scores within the convergence spread, so the population still
	// counts as converged and cataclysms fire around it. Evaluations run
	// concurrently (default parallelism), so the call counter is atomic.
	const lucky = 1.01
	var calls atomic.Int32
	tricky := func(Genome) (float64, error) {
		if calls.Add(1) == 5 {
			return lucky, nil
		}
		return 1, nil
	}
	res, err := Run(context.Background(), Config{Genes: genes(2), PopSize: 8, Generations: 10, Seed: 2}, tricky)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cataclysms == 0 {
		t.Fatal("no cataclysm fired; the best-ever carry went untested")
	}
	if res.BestFitness != lucky {
		t.Errorf("best-ever lost: %f", res.BestFitness)
	}
}

func TestFitnessErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(context.Background(), Config{Genes: genes(2), PopSize: 4, Generations: 2, Seed: 1},
		func(Genome) (float64, error) { return 0, boom })
	if err == nil || !errors.Is(err, boom) {
		t.Errorf("fitness error lost: %v", err)
	}
}

// Property: mutation and crossover never move genes outside their ranges.
func TestQuickOperatorsRespectBounds(t *testing.T) {
	gs := []Gene{
		{Min: -3, Max: 7, Integer: false},
		{Min: 0, Max: 5, Integer: true},
		{Min: 1, Max: 1, Integer: true}, // degenerate range
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomGenome(gs, rng), randomGenome(gs, rng)
		crossover(a, b, rng)
		mutate(gs, a, 0.8, rng)
		mutate(gs, b, 0.8, rng)
		for _, g := range []Genome{a, b} {
			for i, gene := range gs {
				if g[i] < gene.Min || g[i] > gene.Max {
					return false
				}
				if gene.Integer && g[i] != math.Round(g[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestElitesSurviveUnchanged(t *testing.T) {
	cfg := Config{Genes: genes(3), PopSize: 10}.withDefaults()
	rng := rand.New(rand.NewSource(4))
	pop := make([]Genome, cfg.PopSize)
	scores := make([]float64, cfg.PopSize)
	for i := range pop {
		pop[i] = randomGenome(cfg.Genes, rng)
		scores[i], _ = sphere(pop[i])
	}
	bi := bestIndex(scores)
	carryScore := make([]float64, cfg.PopSize)
	carryKnown := make([]bool, cfg.PopSize)
	next := nextGeneration(cfg, pop, scores, carryScore, carryKnown, rng)
	for i := 0; i < elites; i++ {
		if !carryKnown[i] {
			t.Errorf("elite slot %d has no carried score", i)
		}
	}
	found := false
	for _, g := range next[:elites] {
		same := true
		for i := range g {
			if g[i] != pop[bi][i] {
				same = false
			}
		}
		if same {
			found = true
		}
	}
	if !found {
		t.Error("best individual not carried into the next generation")
	}
	if len(next) != cfg.PopSize {
		t.Errorf("next generation has %d individuals", len(next))
	}
}

// TestCancellationStopsWithinOneGeneration: a context cancelled during
// a generation's evaluations must stop the run before the next
// generation begins — at most the remainder of the current population
// is evaluated — and Run must return the context's error.
func TestCancellationStopsWithinOneGeneration(t *testing.T) {
	const pop, gens = 8, 50
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	fit := func(g Genome) (float64, error) {
		if calls.Add(1) == pop+3 { // partway through generation 1
			cancel()
		}
		return sphere(g)
	}
	_, err := Run(ctx, Config{
		Genes: genes(4), PopSize: pop, Generations: gens, Seed: 6, Parallelism: 2,
	}, fit)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Stopped within one generation of the cancellation point: never
	// reaches generation 2's evaluations.
	if n := calls.Load(); n > 2*pop {
		t.Errorf("%d fitness calls after cancelling in generation 1 (bound %d)", n, 2*pop)
	}
}

// TestPanickingFitnessFailsRun: a fitness that panics on one
// individual fails the run with a *sched.PanicError at any
// parallelism; the panic never escapes an evaluation goroutine.
func TestPanickingFitnessFailsRun(t *testing.T) {
	for _, par := range []int{4, 1} {
		var calls atomic.Int32
		fit := func(g Genome) (float64, error) {
			if calls.Add(1) == 5 {
				panic("injected fitness panic")
			}
			return sphere(g)
		}
		_, err := Run(context.Background(), Config{
			Genes: genes(3), PopSize: 12, Generations: 3, Seed: 2, Parallelism: par,
		}, fit)
		var pe *sched.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("parallelism %d: want *sched.PanicError, got %v", par, err)
		}
		if pe.Value != "injected fitness panic" || !strings.HasPrefix(err.Error(), "ga: generation 0: ") {
			t.Errorf("parallelism %d: panic lost its identity: %v", par, err)
		}
	}
}

// TestPreCancelledContextEvaluatesNothing: Run on an already-cancelled
// context returns immediately without touching the fitness function.
func TestPreCancelledContextEvaluatesNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int32
	_, err := Run(ctx, Config{Genes: genes(2), PopSize: 4, Generations: 2, Seed: 1},
		func(g Genome) (float64, error) { calls.Add(1); return sphere(g) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if calls.Load() != 0 {
		t.Errorf("%d fitness calls on a dead context", calls.Load())
	}
}

// TestLogfStreamsGenerations: the progress callback sees one line per
// generation (with the cataclysm marker) and never alters the search.
func TestLogfStreamsGenerations(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logged, err := Run(context.Background(), Config{
		Genes: genes(3), PopSize: 10, Generations: 12, Seed: 5,
		Logf: func(f string, args ...interface{}) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(f, args...))
			mu.Unlock()
		},
	}, func(Genome) (float64, error) { return 1, nil }) // flat → cataclysms
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(logged.History) {
		t.Fatalf("%d log lines for %d generations", len(lines), len(logged.History))
	}
	cataclysms := 0
	for i, l := range lines {
		if !strings.Contains(l, "best") || !strings.Contains(l, "avg") {
			t.Errorf("line %d missing stats: %q", i, l)
		}
		if strings.Contains(l, "cataclysm") {
			cataclysms++
		}
	}
	if cataclysms != logged.Cataclysms {
		t.Errorf("log marks %d cataclysms, result says %d", cataclysms, logged.Cataclysms)
	}
	silent, err := Run(context.Background(), Config{
		Genes: genes(3), PopSize: 10, Generations: 12, Seed: 5,
	}, func(Genome) (float64, error) { return 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if silent.BestFitness != logged.BestFitness || len(silent.History) != len(logged.History) {
		t.Error("logging changed the search trajectory")
	}
}

// trajectoryDigest hashes a run's per-generation statistics and its best
// genome bit-exactly, so any change to the RNG draw order or to an
// operator's arithmetic changes the digest.
func trajectoryDigest(t *testing.T, cfg Config, fit Fitness) string {
	t.Helper()
	res, err := Run(context.Background(), cfg, fit)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	put := func(v uint64) { binary.Write(h, binary.LittleEndian, v) }
	for _, st := range res.History {
		put(uint64(st.Generation))
		put(math.Float64bits(st.Best))
		put(math.Float64bits(st.Avg))
		put(math.Float64bits(st.Worst))
		if st.Cataclysm {
			put(1)
		} else {
			put(0)
		}
	}
	for _, v := range res.Best {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunTrajectoryPinned locks the GA's trajectory under a seed: a
// smooth objective that evolves through selection, crossover, mutation
// and elitism, and a flat one that fires cataclysms. The digests were
// recorded from the operators as they stand; a refactor of Run must
// leave both unchanged.
func TestRunTrajectoryPinned(t *testing.T) {
	flat := func(Genome) (float64, error) { return 1, nil }
	for _, tc := range []struct {
		name string
		cfg  Config
		fit  Fitness
		want string
	}{
		{"sphere", Config{Genes: genes(5), PopSize: 16, Generations: 12, Seed: 99}, sphere,
			"1a18940cc60e9e376c7e675dcce789365ad29efc85baddbeb5b13d4bb190d476"},
		{"flat", Config{Genes: genes(3), PopSize: 10, Generations: 20, Seed: 5}, flat,
			"da73437f1048f7e4c34743e15bef7eff898b1f9403422e8a68448353eca38161"},
	} {
		if got := trajectoryDigest(t, tc.cfg, tc.fit); got != tc.want {
			t.Errorf("%s: trajectory digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
