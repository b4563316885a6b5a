// Package avf turns per-structure Architectural Vulnerability Factors
// into Soft Error Rates, following the paper's presentation: per-class
// SER is the AVF-derated sum of circuit-level fault rates, normalised by
// the total bit count of the class ("units/bit"), so that with a uniform
// 1 unit/bit fault rate the number is the bit-weighted average AVF.
package avf

import (
	"fmt"
	"strings"

	"avfstress/internal/uarch"
)

// Result is the outcome of simulating one program on one configuration.
type Result struct {
	Config   string
	Workload string

	Cycles       int64
	Instructions int64 // committed, measured window only

	AVF [uarch.NumStructures]float64

	// Utilisation diagnostics (measured window).
	IPC            float64
	MispredictRate float64
	DL1MissRate    float64
	L2MissRate     float64
	DTLBMissRate   float64
	OccupancyROB   float64 // mean fraction of entries holding any instruction
	OccupancyIQ    float64
	OccupancyLQ    float64
	OccupancySQ    float64
	WrongPathFrac  float64 // fetched instructions that were wrong-path
	LoadFrac       float64 // committed instruction mix
	StoreFrac      float64
	BranchFrac     float64
	LongArithFrac  float64
	ACEInstrFrac   float64 // committed instructions that are ACE

	// Activity carries raw event counts for downstream models, e.g. the
	// power proxy (internal/power).
	Activity ActivityCounts
}

// ActivityCounts are raw pipeline event counts over the measured window.
type ActivityCounts struct {
	Fetched     int64
	IssuedALU   int64
	IssuedMul   int64
	IssuedMem   int64
	IssuedBr    int64
	DL1Accesses int64
	L2Accesses  int64
	Mispredicts int64
}

// Class is a group of structures normalised together, as in Figures 3-4.
type Class int

// Presentation classes from the paper.
const (
	ClassQS   Class = iota // queueing structures: IQ, ROB, FU, LQ, SQ
	ClassQSRF              // queueing structures + register file ("core")
	ClassDL1DTLB
	ClassL2
	NumClasses
)

var classNames = [NumClasses]string{"QS", "QS+RF", "DL1+DTLB", "L2"}

// String renders the class label ("QS", "QS+RF", ...).
func (c Class) String() string {
	if c >= 0 && c < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Structures returns the member structures of the class.
func (c Class) Structures() []uarch.Structure {
	switch c {
	case ClassQS:
		return uarch.QueueStructures
	case ClassQSRF:
		return uarch.CoreStructures
	case ClassDL1DTLB:
		return []uarch.Structure{uarch.DL1, uarch.DTLB}
	case ClassL2:
		return []uarch.Structure{uarch.L2}
	}
	return nil
}

// AllClasses lists the presentation classes in paper order.
func AllClasses() []Class {
	return []Class{ClassQS, ClassQSRF, ClassDL1DTLB, ClassL2}
}

// StructureSER returns the un-normalised SER contribution of structure s:
// AVF × bits × rate.
func (r *Result) StructureSER(cfg uarch.Config, rates uarch.FaultRates, s uarch.Structure) float64 {
	return r.AVF[s] * float64(uarch.Bits(cfg, s)) * rates[s]
}

// SER returns the class-normalised SER in units/bit: the summed derated
// fault rates of the class members divided by the class's total bits.
func (r *Result) SER(cfg uarch.Config, rates uarch.FaultRates, c Class) float64 {
	var num, bits float64
	for _, s := range c.Structures() {
		num += r.StructureSER(cfg, rates, s)
		bits += float64(uarch.Bits(cfg, s))
	}
	if bits == 0 {
		return 0
	}
	return num / bits
}

// Fitness is the GA objective: the mean of the class-normalised SERs over
// the core (QS+RF), DL1+DTLB and L2 classes. Class normalisation keeps
// the ~20k-bit core relevant against the multi-megabit caches, matching
// the paper's per-class presentation, and automatically adapts when the
// fault-rate set changes (the RHC/EDR studies).
func (r *Result) Fitness(cfg uarch.Config, rates uarch.FaultRates, w Weights) float64 {
	return w.Core*r.SER(cfg, rates, ClassQSRF) +
		w.L1*r.SER(cfg, rates, ClassDL1DTLB) +
		w.L2*r.SER(cfg, rates, ClassL2)
}

// Weights weight the fitness classes; see DefaultWeights.
type Weights struct{ Core, L1, L2 float64 }

// DefaultWeights returns the equal-weight fitness used throughout the
// reproduction.
func DefaultWeights() Weights { return Weights{Core: 1.0 / 3, L1: 1.0 / 3, L2: 1.0 / 3} }

// String renders a compact per-structure report.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: %d instrs, %d cycles, IPC %.2f\n",
		r.Workload, r.Config, r.Instructions, r.Cycles, r.IPC)
	for s := uarch.Structure(0); s < uarch.NumStructures; s++ {
		fmt.Fprintf(&b, "  AVF %-8s %6.2f%%\n", s, r.AVF[s]*100)
	}
	return b.String()
}
