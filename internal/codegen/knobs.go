// Package codegen is the paper's stressmark code generator (§IV-B): it
// turns a small set of knob values into a synthetic loop program in which
// every instruction is ACE (every produced value transitively reaches a
// store, and stored locations are program output).
//
// The generator reproduces the structure of the paper's Figure 2:
//
//	loop:
//	    p = Array[p + i]          ; self-dependent strided load,
//	                              ; L2 miss (or L2 hit, per the switch)
//	    i = i + stride            ; induction
//	    <instructions dependent on p>        ; IQ occupancy in the shadow
//	    <loads covering the previous line>   ; DL1/DTLB coverage (hits)
//	    <ACE add/mul chains>                 ; ILP / latency control
//	    <stores covering the previous line>  ; close every chain
//	    branch loop
//
// All placement decisions are deterministic functions of the knobs
// (including the random seed knob), so a knob vector is a complete,
// reproducible description of a candidate stressmark.
package codegen

import (
	"fmt"
	"strings"

	"avfstress/internal/uarch"
)

// Knobs are the code-generator parameters exposed to the genetic
// algorithm, mirroring §IV-B of the paper.
type Knobs struct {
	// LoopSize is the number of instructions in the loop body, capped at
	// 1.2× the ROB size (the paper's restriction).
	LoopSize int
	// NumLoads is the total number of loads, including the pointer-chase
	// load.
	NumLoads int
	// NumStores is the number of stores.
	NumStores int
	// NumIndepArith is the number of arithmetic instructions independent
	// of any load (they chain from the induction variable).
	NumIndepArith int
	// MissDependent is the number of instructions transitively dependent
	// on the chase load ("instructions dependent on L2 miss"), which
	// populate the issue queue in the miss shadow.
	MissDependent int
	// AvgChainLength is the target average length of the arithmetic
	// chain between a load and its terminal store.
	AvgChainLength float64
	// DepDistance is the number of instructions between two dependent
	// instructions (the scheduler interleaves that many chains).
	DepDistance int
	// FracLongLatency is the fraction of chain arithmetic that uses the
	// long-latency multiplier.
	FracLongLatency float64
	// FracRegReg is the fraction of arithmetic in register-register form
	// (extra register reads keep more architected values ACE).
	FracRegReg float64
	// Seed randomises instruction placement and long/short-latency
	// assignment.
	Seed int64
	// L2Hit switches to the second code generator, in which the chase
	// load hits in L2 (misses only DL1) — the generator the paper's GA
	// selects for the EDR configuration.
	L2Hit bool
}

// String renders the knob table in the style of the paper's Figure 5(a).
func (k Knobs) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %v\n", "Loop Size", k.LoopSize)
	fmt.Fprintf(&b, "%-44s %v\n", "No. of loads", k.NumLoads)
	fmt.Fprintf(&b, "%-44s %v\n", "No. of stores", k.NumStores)
	fmt.Fprintf(&b, "%-44s %v\n", "No. of Independent Arithmetic Instructions", k.NumIndepArith)
	mode := "miss"
	if k.L2Hit {
		mode = "hit"
	}
	fmt.Fprintf(&b, "No. of instructions dependent on L2 %-8s %v\n", mode, k.MissDependent)
	fmt.Fprintf(&b, "%-44s %.2f\n", "Avg. Dependence Chain Length", k.AvgChainLength)
	fmt.Fprintf(&b, "%-44s %v\n", "Dependency Distance", k.DepDistance)
	fmt.Fprintf(&b, "%-44s %.2f\n", "Fraction of Long Latency Arithmetic", k.FracLongLatency)
	fmt.Fprintf(&b, "%-44s %.2f\n", "Fraction of Reg-Reg arithmetic instructions", k.FracRegReg)
	return b.String()
}

// Fingerprint returns a canonical description of the knob vector for
// internal/simcache keys. The generator is a deterministic function of
// (config, knobs), so the knobs are a complete content address for the
// generated program; float fields render in Go's shortest round-trip
// form, so distinct values never collapse. %#v (not %+v) is essential:
// Knobs implements Stringer, and %+v would render the lossy display
// table — which omits Seed entirely and rounds the float knobs to two
// decimals, silently aliasing distinct candidates in the cache.
func (k Knobs) Fingerprint() string {
	return fmt.Sprintf("%#v", k)
}

// reserved instructions: chase load, induction add, loop branch.
const reserved = 3

// MaxLoopFactor is the paper's cap on loop size relative to the ROB.
const MaxLoopFactor = 1.2

// MaxDepDistance bounds the scheduler's interleaving width (the register
// file must hold roughly two live values per interleaved chain).
const MaxDepDistance = 12

// Normalize clamps and repairs the knobs into a feasible configuration
// for cfg, deterministically: the same input always yields the same
// output, and a normalised knob set is a fixed point. The repair order
// (chain arithmetic, then independent arithmetic, then miss-dependent
// instructions, then loads/stores) drops the lowest-impact structure
// first.
func (k Knobs) Normalize(cfg uarch.Config) Knobs {
	maxLoop := int(MaxLoopFactor * float64(cfg.Core.ROBEntries))
	k.LoopSize = clampInt(k.LoopSize, reserved+1, maxLoop)
	k.NumLoads = clampInt(k.NumLoads, 1, k.LoopSize)
	k.NumStores = clampInt(k.NumStores, 1, k.LoopSize)
	k.NumIndepArith = clampInt(k.NumIndepArith, 0, k.LoopSize)
	k.MissDependent = clampInt(k.MissDependent, 0, cfg.Core.IQEntries)
	if k.AvgChainLength < 0 {
		k.AvgChainLength = 0
	}
	if k.AvgChainLength > 16 {
		k.AvgChainLength = 16
	}
	k.DepDistance = clampInt(k.DepDistance, 1, MaxDepDistance)
	k.FracLongLatency = clamp01(k.FracLongLatency)
	k.FracRegReg = clamp01(k.FracRegReg)

	// The rP chain always ends in a store; the independent chain needs a
	// second store. With a single store there is no room for independent
	// arithmetic.
	if k.NumStores < 2 {
		k.NumIndepArith = 0
	}
	// Sweep loads need at least one load-rooted chain to close into.
	if k.loadChains() == 0 {
		k.NumLoads = 1
	}

	// Shrink until the body fits: budget = LoopSize - reserved must hold
	// sweep loads, stores, the two special chains, and enough chain
	// arithmetic to fold any loads in excess of the available chains.
	for {
		budget := k.LoopSize - reserved
		sweep := k.NumLoads - 1
		need := sweep + k.NumStores + k.NumIndepArith + k.MissDependent + k.foldsNeeded()
		if need <= budget {
			break
		}
		switch {
		case k.NumIndepArith > 0:
			k.NumIndepArith--
		case k.MissDependent > 0:
			k.MissDependent--
		case k.NumLoads > 1 && k.NumLoads >= k.NumStores:
			k.NumLoads--
		case k.NumStores > 1:
			k.NumStores--
		default:
			// 1 load + 1 store always fit (LoopSize ≥ reserved+1).
			k.NumLoads, k.NumStores = 1, 1
		}
	}
	// Without load chains the residual chain arithmetic has no chain to
	// live in: shrink the loop to the exact body the special chains need.
	if k.loadChains() == 0 {
		k.LoopSize = reserved + k.NumStores + k.NumIndepArith + k.MissDependent
	}
	return k
}

// foldsNeeded returns how many chain-arithmetic slots are consumed by
// folding sweep loads in excess of the available load chains.
func (k Knobs) foldsNeeded() int {
	chains := k.loadChains()
	extra := (k.NumLoads - 1) - chains
	if extra < 0 {
		return 0
	}
	return extra
}

// loadChains returns how many stores remain for load-rooted chains after
// the dedicated rP-chain store and independent-chain store.
func (k Knobs) loadChains() int {
	n := k.NumStores - 1 // rP chain store
	if k.NumIndepArith > 0 {
		n--
	}
	if n < 0 {
		n = 0
	}
	return n
}

// ChainArith returns the number of body slots left for load-chain
// arithmetic after all other components (derived, not a free knob).
func (k Knobs) ChainArith() int {
	return k.LoopSize - reserved - (k.NumLoads - 1) - k.NumStores -
		k.NumIndepArith - k.MissDependent
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
