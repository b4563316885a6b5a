package avf

import (
	"math"
	"strings"
	"testing"

	"avfstress/internal/uarch"
)

func flatResult(v float64) *Result {
	r := &Result{Config: "Baseline", Workload: "w"}
	for s := uarch.Structure(0); s < uarch.NumStructures; s++ {
		r.AVF[s] = v
	}
	return r
}

func TestClassMembership(t *testing.T) {
	if len(ClassQS.Structures()) != 7 {
		t.Errorf("QS has %d structures", len(ClassQS.Structures()))
	}
	if len(ClassQSRF.Structures()) != 8 {
		t.Errorf("QS+RF has %d structures", len(ClassQSRF.Structures()))
	}
	if got := ClassDL1DTLB.Structures(); len(got) != 2 || got[0] != uarch.DL1 || got[1] != uarch.DTLB {
		t.Errorf("DL1+DTLB class = %v", got)
	}
	if got := ClassL2.Structures(); len(got) != 1 || got[0] != uarch.L2 {
		t.Errorf("L2 class = %v", got)
	}
	if len(AllClasses()) != int(NumClasses) {
		t.Error("AllClasses incomplete")
	}
}

func TestSERNormalisation(t *testing.T) {
	cfg := uarch.Baseline()
	rates := uarch.UniformRates(1)
	// With AVF = 1 everywhere and rate 1, every normalised class SER is
	// exactly 1 unit/bit.
	r := flatResult(1)
	for _, cl := range AllClasses() {
		if got := r.SER(cfg, rates, cl); math.Abs(got-1) > 1e-12 {
			t.Errorf("SER(%v) = %f, want 1", cl, got)
		}
	}
	// AVF = 0.5 halves it.
	r = flatResult(0.5)
	if got := r.SER(cfg, rates, ClassQS); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("SER = %f, want 0.5", got)
	}
}

func TestSERRespectsRates(t *testing.T) {
	cfg := uarch.Baseline()
	r := flatResult(1)
	edr := uarch.EDRRates()
	got := r.SER(cfg, edr, ClassQS)
	// With EDR rates, only IQ and FU contribute within QS.
	want := float64(uarch.Bits(cfg, uarch.IQ)+uarch.Bits(cfg, uarch.FU)) /
		float64(qsBits(cfg))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("EDR QS SER = %f, want %f", got, want)
	}
}

func qsBits(cfg uarch.Config) uint64 {
	var b uint64
	for _, s := range uarch.QueueStructures {
		b += uarch.Bits(cfg, s)
	}
	return b
}

func TestStructureSER(t *testing.T) {
	cfg := uarch.Baseline()
	rates := uarch.UniformRates(2)
	r := flatResult(0.5)
	got := r.StructureSER(cfg, rates, uarch.IQ)
	want := 0.5 * float64(uarch.Bits(cfg, uarch.IQ)) * 2
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("StructureSER = %f, want %f", got, want)
	}
}

func TestFitnessWeights(t *testing.T) {
	cfg := uarch.Baseline()
	rates := uarch.UniformRates(1)
	r := flatResult(1)
	if got := r.Fitness(cfg, rates, DefaultWeights()); math.Abs(got-1) > 1e-12 {
		t.Errorf("flat-1 fitness = %f, want 1", got)
	}
	// Zero weights zero the fitness.
	if got := r.Fitness(cfg, rates, Weights{}); got != 0 {
		t.Errorf("zero-weight fitness = %f", got)
	}
	// Core-only weight isolates QS+RF.
	coreOnly := r.Fitness(cfg, rates, Weights{Core: 1})
	if math.Abs(coreOnly-r.SER(cfg, rates, ClassQSRF)) > 1e-12 {
		t.Error("core-only fitness should equal QS+RF SER")
	}
}

func TestResultString(t *testing.T) {
	r := flatResult(0.25)
	r.Instructions = 1000
	r.Cycles = 2000
	s := r.String()
	for _, want := range []string{"w on Baseline", "ROB", "25.00%"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		ClassQS: "QS", ClassQSRF: "QS+RF", ClassDL1DTLB: "DL1+DTLB", ClassL2: "L2",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("class %d renders as %q", c, c.String())
		}
	}
}
