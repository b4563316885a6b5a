package bpred

import (
	"testing"

	"avfstress/internal/prog"
)

func TestConfigNormalisation(t *testing.T) {
	p := New(Config{GlobalEntries: 1000}) // not a power of two
	if got := p.cfg.GlobalEntries; got != 1024 {
		t.Errorf("global entries normalised to %d, want 1024", got)
	}
	d := New(Config{})
	if d.cfg != DefaultConfig() {
		t.Errorf("zero config should normalise to the default, got %+v", d.cfg)
	}
}

func TestAlwaysTakenConverges(t *testing.T) {
	p := New(DefaultConfig())
	const pc = 0x1000
	for i := 0; i < 64; i++ {
		p.Update(pc, true)
	}
	p.ResetStats()
	for i := 0; i < 1000; i++ {
		p.Update(pc, true)
	}
	if p.Mispredicts != 0 {
		t.Errorf("always-taken branch mispredicted %d times after training", p.Mispredicts)
	}
}

func TestLoopBackedgeNearPerfect(t *testing.T) {
	// A taken-except-exit loop backedge is the stressmark's only branch;
	// the paper requires the stressmark never to mispredict in steady
	// state.
	p := New(DefaultConfig())
	const pc = 0x2004
	for i := 0; i < 10000; i++ {
		p.Update(pc, true)
	}
	if rate := p.MispredictRate(); rate > 0.01 {
		t.Errorf("loop backedge mispredicted at rate %.4f", rate)
	}
}

func TestPeriodicPatternLearnedByLocal(t *testing.T) {
	p := New(DefaultConfig())
	gen := prog.Periodic{Period: 8, Duty: 4}
	const pc = 0x3000
	for i := int64(0); i < 2000; i++ {
		p.Update(pc, gen.Taken(i))
	}
	p.ResetStats()
	for i := int64(2000); i < 4000; i++ {
		p.Update(pc, gen.Taken(i))
	}
	if rate := p.MispredictRate(); rate > 0.05 {
		t.Errorf("trained periodic pattern mispredicted at rate %.3f", rate)
	}
}

func TestPhaseAlignedPeriodicsDoNotAlias(t *testing.T) {
	// Several branches sharing one cyclic pattern at different phases
	// must coexist in the history-indexed local table (the workload
	// synthesiser relies on this).
	p := New(DefaultConfig())
	gens := make([]prog.Periodic, 8)
	for i := range gens {
		gens[i] = prog.Periodic{Period: 8, Duty: 4, Phase: int64(i)}
	}
	for i := int64(0); i < 4000; i++ {
		for b, g := range gens {
			p.Update(uint64(0x4000+4*b), g.Taken(i))
		}
	}
	p.ResetStats()
	for i := int64(4000); i < 8000; i++ {
		for b, g := range gens {
			p.Update(uint64(0x4000+4*b), g.Taken(i))
		}
	}
	if rate := p.MispredictRate(); rate > 0.08 {
		t.Errorf("phase-aligned periodic branches mispredicted at rate %.3f", rate)
	}
}

func TestBernoulliMispredictNearBias(t *testing.T) {
	// A trained tournament predictor mispredicts a Bernoulli branch at
	// roughly the rare-direction probability.
	p := New(DefaultConfig())
	gen := prog.Bernoulli{Seed: 5, P: 0.1}
	const pc = 0x5000
	for i := int64(0); i < 5000; i++ {
		p.Update(pc, gen.Taken(i))
	}
	p.ResetStats()
	for i := int64(5000); i < 30000; i++ {
		p.Update(pc, gen.Taken(i))
	}
	rate := p.MispredictRate()
	if rate < 0.05 || rate > 0.2 {
		t.Errorf("bernoulli(0.1) mispredict rate %.3f outside [0.05, 0.2]", rate)
	}
}

func TestPredictMatchesUpdateDecision(t *testing.T) {
	p := New(DefaultConfig())
	gen := prog.Bernoulli{Seed: 3, P: 0.4}
	for i := int64(0); i < 2000; i++ {
		pred := p.Predict(0x6000)
		taken := gen.Taken(i)
		correct := p.Update(0x6000, taken)
		if correct != (pred == taken) {
			t.Fatalf("iteration %d: Predict and Update disagree", i)
		}
	}
}

func TestResetStatsKeepsTraining(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 100; i++ {
		p.Update(0x7000, true)
	}
	p.ResetStats()
	if p.Lookups != 0 || p.Mispredicts != 0 {
		t.Error("counters not cleared")
	}
	if !p.Predict(0x7000) {
		t.Error("training lost after ResetStats")
	}
}
