package liveness

import (
	"strings"
	"testing"

	"avfstress/internal/isa"
	"avfstress/internal/prog"
	"avfstress/internal/uarch"
)

func initAll() []isa.Instr {
	var ins []isa.Instr
	for r := isa.Reg(0); r < isa.NumArchRegs-1; r++ {
		ins = append(ins, isa.Instr{Op: isa.OpAdd, Dest: r, Src1: isa.RZero, Imm: int16(r)})
	}
	return ins
}

func loopOf(body []isa.Instr) *prog.Program {
	body = append(body, isa.Instr{Op: isa.OpBranch, Dest: isa.RZero, Src1: 2, BrGen: 0})
	return &prog.Program{
		Name: "unit", Init: initAll(), Body: body,
		BrGens:     []prog.BranchGen{prog.LoopBranch{Iterations: 1 << 40}},
		Iterations: 1 << 40,
	}
}

func core() uarch.CoreConfig { return uarch.Baseline().Core }

// findBodyDef returns the body instruction writing r (first match).
func findBodyDef(p *prog.Program, r isa.Reg) *isa.Instr {
	for i := range p.Body {
		in := &p.Body[i]
		if isa.WritesDest(in) && in.Dest == r {
			return in
		}
	}
	return nil
}

func TestDeadDefs(t *testing.T) {
	p := loopOf([]isa.Instr{
		{Op: isa.OpAdd, Dest: 5, Src1: 1, Imm: 1},                // dead: never read
		{Op: isa.OpAdd, Dest: 6, Src1: 2, Imm: 3},                // live: read by the mul
		{Op: isa.OpMul, Dest: 7, Src1: 6, Src2: 2, RegReg: true}, // live: read below
		{Op: isa.OpAdd, Dest: 8, Src1: 7, Imm: 1},                // dead: never read
		{Op: isa.OpAdd, Dest: 9, Src1: 9, Imm: 1},                // live: self-dependent chase
		{Op: isa.OpAdd, Dest: 10, Src1: 3, Imm: 2, UnACE: true},  // dead: un-ACE result
	})
	s := Analyze(p, core())
	for _, tc := range []struct {
		r    isa.Reg
		dead bool
	}{{5, true}, {6, false}, {7, false}, {8, true}, {9, false}, {10, true}} {
		in := findBodyDef(p, tc.r)
		if in == nil {
			t.Fatalf("no body def of r%d", tc.r)
		}
		if got := s.DeadDefs[in]; got != tc.dead {
			t.Errorf("def of r%d: dead=%v, want %v", tc.r, got, tc.dead)
		}
	}
	// Init defs of registers ACE instructions read are live. Init defs
	// the body redefines without reading first are dead, and so is r3's:
	// its only reader is the un-ACE add, and un-ACE reads never advance
	// a value's last-read time in the replay's fault model.
	for i := range p.Init {
		in := &p.Init[i]
		switch in.Dest {
		case 1, 2: // ACE-read every iteration, never redefined
			if s.DeadDefs[in] {
				t.Errorf("init def of r%d marked dead but the body reads it", in.Dest)
			}
		case 3: // read only by the un-ACE add
			if !s.DeadDefs[in] {
				t.Error("init def of r3 not marked dead despite only un-ACE readers")
			}
		case 5, 8: // redefined by the body with no read in between
			if !s.DeadDefs[in] {
				t.Errorf("init def of r%d not marked dead despite unread redefinition", in.Dest)
			}
		}
	}
	if s.deadDefCount == 0 || s.deadDefCount >= s.defCount {
		t.Errorf("%d of %d defs dead, want some but not all", s.deadDefCount, s.defCount)
	}
}

func TestOccupancyCaps(t *testing.T) {
	c := core()
	// A load/store-free body caps both LSQ halves at zero occupants and
	// leaves the IQ capped by the window's non-nop count (if smaller
	// than the queue).
	p := loopOf([]isa.Instr{
		{Op: isa.OpAdd, Dest: 5, Src1: 1, Imm: 1},
		{Op: isa.OpAdd, Dest: 6, Src1: 2, Imm: 3},
	})
	s := Analyze(p, c)
	if s.LQCap != 0 || s.SQCap != 0 {
		t.Errorf("LSQ caps %d/%d for a load/store-free body, want 0/0", s.LQCap, s.SQCap)
	}
	if s.MaxLoads != 0 || s.MaxStores != 0 {
		t.Errorf("window maxima loads=%d stores=%d, want 0/0", s.MaxLoads, s.MaxStores)
	}
	if s.IQCap <= 0 || s.IQCap > c.IQEntries {
		t.Errorf("IQ cap %d outside (0, %d]", s.IQCap, c.IQEntries)
	}
	if s.FUCap <= 0 || s.FUCap > c.NumALUs*c.ALULatency+c.NumMuls*c.MulLatency {
		t.Errorf("FU cap %d outside its bound", s.FUCap)
	}
	// The window writer count bounds free-list pop depth; a two-writer
	// body leaves most of the physical pool untouched.
	if s.MaxWriters > c.ROBEntries {
		t.Errorf("window writers %d exceed the ROB", s.MaxWriters)
	}
	wantFree := c.PhysRegs - (isa.NumArchRegs - 1) - s.MaxWriters
	if wantFree < 0 {
		wantFree = 0
	}
	if s.FreeRFSlots != wantFree {
		t.Errorf("free-list bound %d, want %d", s.FreeRFSlots, wantFree)
	}
	if s.MaxNonNop == 0 || s.MaxAdds == 0 {
		t.Error("window maxima missing the adds")
	}
	if !strings.Contains(s.String(), "liveness:") {
		t.Error("String() lacks the liveness prefix")
	}
}

func TestBitMasksFixpoint(t *testing.T) {
	// r1 feeds a store (root consumer, full demand); r2 feeds only the
	// low byte of an arithmetic chain whose sink demands all bits via a
	// branch compare.
	p := loopOf([]isa.Instr{
		{Op: isa.OpAdd, Dest: 5, Src1: 2, Imm: 1},
		{Op: isa.OpStore, Src1: 1, Src2: 5, AddrGen: 0},
	})
	p.AddrGens = []prog.AddrGen{prog.Fixed{Address: 0x4000_0000}}
	s := Analyze(p, core())
	if len(s.LiveIn) != len(p.Init)+len(p.Body) {
		t.Fatalf("LiveIn has %d entries, want %d", len(s.LiveIn), len(p.Init)+len(p.Body))
	}
	// At the loop head, both store operands' sources must be live with
	// full masks (store demands all bits, the add smears demand down).
	head := s.LiveIn[len(p.Init)]
	if head[1] != isa.AllBits {
		t.Errorf("store address source r1 live-in %#x, want all bits", head[1])
	}
	if head[2] != isa.AllBits {
		t.Errorf("store data chain source r2 live-in %#x, want all bits", head[2])
	}
	// A register nothing reads stays fully dead at every point.
	for i, m := range s.LiveIn {
		if m[20] != 0 {
			t.Errorf("untouched r20 live at point %d: %#x", i, m[20])
		}
	}
	if f := s.LiveBitFrac(); f <= 0 || f >= 1 {
		t.Errorf("live-bit fraction %f not in (0, 1)", f)
	}
}

func TestAnalyzeEmptyBody(t *testing.T) {
	// Degenerate programs must yield conservative no-cap facts, not
	// zero caps that would prune live structures.
	c := core()
	s := Analyze(&prog.Program{Name: "empty"}, c)
	if s.IQCap != c.IQEntries || s.LQCap != c.LQEntries || s.SQCap != c.SQEntries {
		t.Errorf("empty-body caps %d/%d/%d, want full queues", s.IQCap, s.LQCap, s.SQCap)
	}
	if s.FreeRFSlots != 0 || len(s.DeadDefs) != 0 {
		t.Errorf("empty-body prune facts %d free slots, %d dead defs, want none",
			s.FreeRFSlots, len(s.DeadDefs))
	}
}
