package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegValid(t *testing.T) {
	for r := Reg(0); r < NumArchRegs; r++ {
		if !r.Valid() {
			t.Errorf("register %d should be valid", r)
		}
	}
	if Reg(NumArchRegs).Valid() {
		t.Error("register 32 should be invalid")
	}
	if RZero.String() != "zero" {
		t.Errorf("RZero renders as %q", RZero.String())
	}
	if Reg(5).String() != "r5" {
		t.Errorf("r5 renders as %q", Reg(5).String())
	}
}

func TestOpClassification(t *testing.T) {
	cases := []struct {
		op  Op
		mem bool
	}{
		{OpNop, false},
		{OpAdd, false},
		{OpMul, false},
		{OpLoad, true},
		{OpStore, true},
		{OpBranch, false},
	}
	for _, c := range cases {
		if c.op.IsMem() != c.mem {
			t.Errorf("%v.IsMem() = %v, want %v", c.op, c.op.IsMem(), c.mem)
		}
	}
}

func TestOpString(t *testing.T) {
	want := map[Op]string{
		OpNop: "nop", OpAdd: "addq", OpMul: "mulq",
		OpLoad: "ldq", OpStore: "stq", OpBranch: "br",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d renders as %q, want %q", op, op.String(), s)
		}
	}
	if !strings.Contains(Op(200).String(), "200") {
		t.Error("unknown op should render its numeric value")
	}
}

func TestWrites(t *testing.T) {
	cases := []struct {
		in   Instr
		want bool
	}{
		{Instr{Op: OpAdd, Dest: 3}, true},
		{Instr{Op: OpMul, Dest: 4}, true},
		{Instr{Op: OpLoad, Dest: 5}, true},
		{Instr{Op: OpAdd, Dest: RZero}, false}, // writes to r31 are discarded
		{Instr{Op: OpStore, Dest: RZero}, false},
		{Instr{Op: OpBranch, Dest: RZero}, false},
		{Instr{Op: OpNop, Dest: 3}, false},
	}
	for _, c := range cases {
		if got := c.in.Writes(); got != c.want {
			t.Errorf("%v.Writes() = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSrcRegs(t *testing.T) {
	cases := []struct {
		name string
		in   Instr
		want int
	}{
		{"regreg add", Instr{Op: OpAdd, Dest: 3, Src1: 4, Src2: 5, RegReg: true}, 2},
		{"imm add", Instr{Op: OpAdd, Dest: 3, Src1: 4}, 1},
		{"add reading zero", Instr{Op: OpAdd, Dest: 3, Src1: RZero}, 0},
		{"load", Instr{Op: OpLoad, Dest: 3, Src1: 7}, 1},
		{"store", Instr{Op: OpStore, Dest: RZero, Src1: 7, Src2: 8}, 2},
		{"branch", Instr{Op: OpBranch, Dest: RZero, Src1: 2}, 1},
		{"nop", Instr{Op: OpNop}, 0},
	}
	for _, c := range cases {
		got := c.in.SrcRegs(nil)
		if len(got) != c.want {
			t.Errorf("%s: SrcRegs = %v, want %d registers", c.name, got, c.want)
		}
		for _, r := range got {
			if r == RZero {
				t.Errorf("%s: SrcRegs returned the zero register", c.name)
			}
		}
	}
}

func TestValidateRejectsBadInstructions(t *testing.T) {
	bad := []Instr{
		{Op: Op(99)},
		{Op: OpStore, Dest: 3, Src1: 1, Src2: 2}, // store writing a register
		{Op: OpBranch, Dest: 3, Src1: 1},         // branch writing a register
		{Op: OpLoad, Dest: 3, Src1: 1, AddrGen: -1},
	}
	for _, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("Validate accepted invalid instruction %+v", in)
		}
	}
	good := Instr{Op: OpAdd, Dest: 3, Src1: 4, Imm: 7}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected %v: %v", good, err)
	}
}

func TestStringForms(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpAdd, Dest: 3, Src1: 4, Src2: 5, RegReg: true}, "addq r4, r5, r3"},
		{Instr{Op: OpAdd, Dest: 3, Src1: 4, Imm: 9}, "addq r4, #9, r3"},
		{Instr{Op: OpLoad, Dest: 3, Src1: 1, AddrGen: 2}, "ldq r3, (r1)[ag2]"},
		{Instr{Op: OpStore, Dest: RZero, Src1: 1, Src2: 6, AddrGen: 0}, "stq r6, (r1)[ag0]"},
		{Instr{Op: OpBranch, Dest: RZero, Src1: 2, BrGen: 1}, "br r2[bg1]"},
		{Instr{Op: OpNop}, "nop"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// Property: for arbitrary valid instructions SrcRegs returns at most two
// sources, never the zero register, each one of the encoded Src1/Src2.
func TestQuickSrcRegsBound(t *testing.T) {
	f := func(op uint8, d, s1, s2 uint8, regreg bool) bool {
		in := Instr{
			Op:     Op(op % uint8(numOps)),
			Dest:   Reg(d % NumArchRegs),
			Src1:   Reg(s1 % NumArchRegs),
			Src2:   Reg(s2 % NumArchRegs),
			RegReg: regreg,
		}
		srcs := in.SrcRegs(nil)
		for _, r := range srcs {
			if r == RZero || (r != in.Src1 && r != in.Src2) {
				return false
			}
		}
		return len(srcs) <= 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
