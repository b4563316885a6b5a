package analysis

import (
	"math"
	"strings"
	"testing"

	"avfstress/internal/avf"
	"avfstress/internal/uarch"
)

func TestInstantaneousWorstCaseBaseline(t *testing.T) {
	// The paper's §VI distribution for the baseline: 80 ROB entries held
	// as 32 LQ + 32 SQ + 16 IQ, FU idle, LQ data not yet returned.
	w := InstantaneousWorstCase(uarch.Baseline())
	if w.ROBEntries != 80 || w.LQEntries != 32 || w.SQEntries != 32 || w.IQEntries != 16 {
		t.Fatalf("distribution ROB=%d LQ=%d SQ=%d IQ=%d", w.ROBEntries, w.LQEntries, w.SQEntries, w.IQEntries)
	}
	// ACE bits: 80×76 + 16×32 + 32×64 (LQ tags) + 31×64 (LQ data of the
	// completed hit loads) + 32×128 (SQ) = 14720.
	if w.ACEBits != 14720 {
		t.Errorf("ACE bits = %d, want 14720", w.ACEBits)
	}
	v := w.Value()
	if v <= 0.7 || v >= 1 {
		t.Errorf("bound %f outside the plausible (0.7, 1) band", v)
	}
	if !strings.Contains(w.String(), "units/bit") {
		t.Error("String() lacks units")
	}
}

func TestInstantaneousWorstCaseConfigA(t *testing.T) {
	// Config A has a 96-entry ROB: 32+32 LQ/SQ and the rest (32) in a
	// 32-entry IQ.
	w := InstantaneousWorstCase(uarch.ConfigA())
	if w.ROBEntries != 96 || w.LQEntries != 32 || w.SQEntries != 32 || w.IQEntries != 32 {
		t.Fatalf("distribution ROB=%d LQ=%d SQ=%d IQ=%d", w.ROBEntries, w.LQEntries, w.SQEntries, w.IQEntries)
	}
}

func mkResult(name string, avfVal float64) *avf.Result {
	r := &avf.Result{Workload: name}
	for s := uarch.Structure(0); s < uarch.NumStructures; s++ {
		r.AVF[s] = avfVal
	}
	return r
}

func TestBestPicksMaximum(t *testing.T) {
	cfg := uarch.Baseline()
	rates := uarch.UniformRates(1)
	rs := []*avf.Result{mkResult("lo", 0.2), mkResult("hi", 0.8), mkResult("mid", 0.5)}
	best, ser := Best(rs, cfg, rates, avf.ClassQSRF)
	if best.Workload != "hi" {
		t.Errorf("best = %s", best.Workload)
	}
	if math.Abs(ser-0.8) > 1e-12 {
		t.Errorf("best SER = %f", ser)
	}
}

func TestSumOfHighestPerStructureComposesPrograms(t *testing.T) {
	cfg := uarch.Baseline()
	rates := uarch.UniformRates(1)
	// Program A maxes the ROB, program B maxes the RF: the estimator
	// composes both, exceeding either program's own class SER.
	a, b := mkResult("a", 0.1), mkResult("b", 0.1)
	a.AVF[uarch.ROB] = 0.9
	b.AVF[uarch.RF] = 0.9
	rs := []*avf.Result{a, b}
	est := SumOfHighestPerStructure(rs, cfg, rates, avf.ClassQSRF)
	_, bestSER := Best(rs, cfg, rates, avf.ClassQSRF)
	if est <= bestSER {
		t.Errorf("estimator %f should exceed best individual %f", est, bestSER)
	}
}

func TestSumOfRawRates(t *testing.T) {
	cfg := uarch.Baseline()
	if got := SumOfRawRates(cfg, uarch.UniformRates(1), avf.ClassQSRF); math.Abs(got-1) > 1e-12 {
		t.Errorf("uniform raw rate = %f, want 1", got)
	}
	// The paper reports 0.59 and 0.39 units/bit for its RHC/EDR core
	// rate sets; with our bit widths the same computation lands nearby.
	rhc := SumOfRawRates(cfg, uarch.RHCRates(), avf.ClassQSRF)
	if rhc <= 0.4 || rhc >= 0.75 {
		t.Errorf("RHC raw rate = %f, expected in (0.4, 0.75)", rhc)
	}
	edr := SumOfRawRates(cfg, uarch.EDRRates(), avf.ClassQSRF)
	if edr <= 0.2 || edr >= 0.5 {
		t.Errorf("EDR raw rate = %f, expected in (0.2, 0.5)", edr)
	}
	if edr >= rhc {
		t.Error("EDR raw rate must be below RHC (more structures at zero)")
	}
}

func TestSuiteCoverage(t *testing.T) {
	cfg := uarch.Baseline()
	rates := uarch.UniformRates(1)
	rs := []*avf.Result{mkResult("lo", 0.2), mkResult("hi", 0.6)}
	cov := SuiteCoverage(rs, cfg, rates, avf.ClassQS, 0.9)
	if cov.BestName != "hi" {
		t.Errorf("best name %q", cov.BestName)
	}
	if math.Abs(cov.Min-0.2) > 1e-12 || math.Abs(cov.Max-0.6) > 1e-12 {
		t.Errorf("range [%f, %f]", cov.Min, cov.Max)
	}
	if math.Abs(cov.Mean-0.4) > 1e-12 {
		t.Errorf("mean %f", cov.Mean)
	}
	if math.Abs(cov.Gap()-0.5) > 1e-12 {
		t.Errorf("gap %f, want 0.5 (0.9/0.6 - 1)", cov.Gap())
	}
	if !strings.Contains(cov.String(), "hi") {
		t.Error("coverage report missing best workload")
	}
}

func TestCoverageEmpty(t *testing.T) {
	cov := SuiteCoverage(nil, uarch.Baseline(), uarch.UniformRates(1), avf.ClassQS, 0.5)
	if cov.Min != 0 || cov.Max != 0 || cov.Gap() != 0 {
		t.Errorf("empty coverage: %+v", cov)
	}
}
