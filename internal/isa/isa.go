// Package isa defines the synthetic Alpha-flavoured integer instruction
// set used by the stressmark code generator, the workload synthesiser and
// the out-of-order pipeline model.
//
// The paper's code generator emits "C with embedded Alpha assembly"; this
// package is the Go equivalent of that target language. Only the integer
// pipeline is modelled (the paper restricts its evaluation to the integer
// pipeline for parity with SPEC CPU2006 integer results).
package isa

import "fmt"

// Reg identifies one of the 32 architected integer registers. R31 reads
// as zero and writes to it are discarded, mirroring the Alpha convention.
type Reg uint8

// Architected register file size.
const (
	NumArchRegs = 32
	// RZero always reads zero; writing it is a no-op (Alpha r31).
	RZero Reg = 31
)

// Valid reports whether r names an architected register.
func (r Reg) Valid() bool { return r < NumArchRegs }

// String renders the register name ("r4", "zero").
func (r Reg) String() string {
	if r == RZero {
		return "zero"
	}
	return fmt.Sprintf("r%d", r)
}

// Op enumerates the instruction classes of the synthetic ISA. The classes
// map one-to-one onto the functional units and queues whose occupancy the
// paper's knobs control.
type Op uint8

const (
	// OpNop is an un-ACE filler instruction (compiler alignment NOPs in
	// the paper's taxonomy). It occupies fetch/ROB slots but never
	// contributes ACE bits.
	OpNop Op = iota
	// OpAdd is a short-latency ALU operation (1 cycle on the baseline).
	OpAdd
	// OpMul is a long-latency arithmetic operation (7 cycles on the
	// baseline, single multiplier).
	OpMul
	// OpLoad is a 64-bit integer load.
	OpLoad
	// OpStore is a 64-bit integer store.
	OpStore
	// OpBranch is a conditional branch.
	OpBranch

	numOps
)

var opNames = [numOps]string{"nop", "addq", "mulq", "ldq", "stq", "br"}

// String renders the mnemonic ("addq", "ldq", ...).
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMem reports whether the op accesses the data memory hierarchy.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore }

// Instr is one static instruction. Dynamic information (the effective
// address of a memory operation, the outcome of a branch) is produced per
// iteration by the program's address and branch generators in package prog.
type Instr struct {
	Op   Op
	Dest Reg // destination register; RZero when none
	Src1 Reg // first source; RZero when unused
	Src2 Reg // second source; RZero when unused or immediate form

	// Imm is the immediate operand for immediate-form arithmetic. It is
	// only meaningful when RegReg is false.
	Imm int16

	// RegReg selects the register-register form for arithmetic. The
	// paper's "register usage" knob controls the fraction of reg-reg
	// instructions, which in turn controls how many architected register
	// values are ACE.
	RegReg bool

	// AddrGen selects which of the program's address generators produces
	// the effective address for a memory op (index into prog.Program's
	// generator table). Meaningless for non-memory ops.
	AddrGen int

	// BrGen selects the program's branch-outcome generator for OpBranch.
	BrGen int

	// UnACE marks the instruction as dynamically dead / first-level
	// un-ACE (its result provably never influences program output). The
	// stressmark generator never sets this; the workload synthesiser uses
	// it to model the 3-16% dynamically dead instructions reported by
	// Butts & Sohi.
	UnACE bool

	// Label is an optional human-readable tag used in listings.
	Label string
}

// Writes reports whether the instruction produces a register value
// (writes to RZero do not count).
func (in Instr) Writes() bool { return WritesDest(&in) }

// WritesDest is Writes without copying the Instr, for the pipeline's
// per-dispatch hot path; the single source of truth for which ops
// produce a register value.
func WritesDest(in *Instr) bool {
	if in.Dest == RZero {
		return false
	}
	switch in.Op {
	case OpAdd, OpMul, OpLoad:
		return true
	}
	return false
}

// SrcRegAt returns the architected register read through physical
// source-operand slot i of in — the pipeline's renaming order: slot 0
// is Src1 for every reading op, slot 1 is Src2 for register-register
// arithmetic and for the store's data operand. RZero when the slot is
// unused. Fault-injection replays report a corrupted register value's
// consumer as (instruction, slot); this maps the slot back to the
// architected register the root-cause walk follows.
func SrcRegAt(in *Instr, i int) Reg {
	switch in.Op {
	case OpAdd, OpMul:
		if i == 0 {
			return in.Src1
		}
		if i == 1 && in.RegReg {
			return in.Src2
		}
	case OpLoad, OpBranch:
		if i == 0 {
			return in.Src1
		}
	case OpStore:
		if i == 0 {
			return in.Src1
		}
		if i == 1 {
			return in.Src2
		}
	}
	return RZero
}

// SrcRegs appends the source registers that create true dependences
// (RZero excluded) to dst and returns it.
func (in Instr) SrcRegs(dst []Reg) []Reg {
	appendIf := func(r Reg) {
		if r != RZero {
			dst = append(dst, r)
		}
	}
	switch in.Op {
	case OpAdd, OpMul:
		appendIf(in.Src1)
		if in.RegReg {
			appendIf(in.Src2)
		}
	case OpLoad:
		appendIf(in.Src1)
	case OpStore:
		appendIf(in.Src1) // base
		appendIf(in.Src2) // data
	case OpBranch:
		appendIf(in.Src1)
	}
	return dst
}

// String renders the instruction in an Alpha-like assembly syntax.
func (in Instr) String() string {
	switch in.Op {
	case OpNop:
		return "nop"
	case OpAdd, OpMul:
		if in.RegReg {
			return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Src1, in.Src2, in.Dest)
		}
		return fmt.Sprintf("%s %s, #%d, %s", in.Op, in.Src1, in.Imm, in.Dest)
	case OpLoad:
		return fmt.Sprintf("%s %s, (%s)[ag%d]", in.Op, in.Dest, in.Src1, in.AddrGen)
	case OpStore:
		return fmt.Sprintf("%s %s, (%s)[ag%d]", in.Op, in.Src2, in.Src1, in.AddrGen)
	case OpBranch:
		return fmt.Sprintf("%s %s[bg%d]", in.Op, in.Src1, in.BrGen)
	}
	return fmt.Sprintf("?%d", in.Op)
}

// Validate reports the first structural problem with the instruction, or
// nil. It is used by the code generator's self-checks and by the
// failure-injection tests.
func (in Instr) Validate() error {
	if in.Op >= numOps {
		return fmt.Errorf("isa: invalid opcode %d", in.Op)
	}
	for _, r := range []Reg{in.Dest, in.Src1, in.Src2} {
		if !r.Valid() {
			return fmt.Errorf("isa: invalid register %d in %v", r, uint8(r))
		}
	}
	if in.Op == OpStore && in.Dest != RZero {
		return fmt.Errorf("isa: store must not write a register: %v", in)
	}
	if in.Op == OpBranch && in.Dest != RZero {
		return fmt.Errorf("isa: branch must not write a register: %v", in)
	}
	if in.Op.IsMem() && in.AddrGen < 0 {
		return fmt.Errorf("isa: memory op without address generator: %v", in)
	}
	return nil
}

// InstrBits is the architectural size of one instruction word in bits,
// used for I-cache footprints (Alpha instructions are 4 bytes).
const InstrBits = 32

// InstrBytes is InstrBits in bytes.
const InstrBytes = InstrBits / 8
