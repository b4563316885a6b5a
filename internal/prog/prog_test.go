package prog

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"avfstress/internal/isa"
)

func twoInstrLoop(iters int64) *Program {
	return &Program{
		Name: "test",
		Init: []isa.Instr{
			{Op: isa.OpAdd, Dest: 1, Src1: isa.RZero, Imm: 1},
		},
		Body: []isa.Instr{
			{Op: isa.OpLoad, Dest: 2, Src1: 1, AddrGen: 0},
			{Op: isa.OpBranch, Dest: isa.RZero, Src1: 1, BrGen: 0},
		},
		AddrGens:   []AddrGen{PointerChase{Base: 0x1000, Stride: 64, Region: 1024}},
		BrGens:     []BranchGen{LoopBranch{Iterations: iters}},
		Iterations: iters,
	}
}

func TestStreamOrderAndTermination(t *testing.T) {
	p := twoInstrLoop(3)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	s := NewStream(p)
	var seen []Dyn
	for {
		var d Dyn
		if !s.NextInto(&d) {
			break
		}
		seen = append(seen, d)
	}
	want := 1 + 3*2 // init + 3 iterations of 2
	if len(seen) != want {
		t.Fatalf("stream yielded %d instructions, want %d", len(seen), want)
	}
	if seen[0].Iter != -1 {
		t.Errorf("init instruction has iter %d, want -1", seen[0].Iter)
	}
	if seen[1].PC != BodyBase {
		t.Errorf("first body PC %#x, want %#x", seen[1].PC, BodyBase)
	}
	if seen[2].PC != BodyBase+isa.InstrBytes {
		t.Errorf("second body PC %#x", seen[2].PC)
	}
	// Sequence numbers are dense and increasing.
	for i, d := range seen {
		if d.Seq != int64(i) {
			t.Fatalf("instruction %d has seq %d", i, d.Seq)
		}
	}
	// Backedge taken on all but the last iteration.
	if !seen[2].Taken || !seen[4].Taken {
		t.Error("backedge should be taken on early iterations")
	}
	if seen[6].Taken {
		t.Error("final backedge should fall through")
	}
}

func TestStreamReset(t *testing.T) {
	p := twoInstrLoop(2)
	s := NewStream(p)
	var first, d, again Dyn
	s.NextInto(&first)
	for s.NextInto(&d) {
	}
	s.Reset()
	ok := s.NextInto(&again)
	if !ok || again.PC != first.PC || again.Seq != 0 {
		t.Errorf("reset stream starts at %+v, want %+v", again, first)
	}
}

func TestValidateCatchesBadReferences(t *testing.T) {
	p := twoInstrLoop(2)
	p.Body[0].AddrGen = 5
	if err := p.Validate(); err == nil {
		t.Error("out-of-range address generator accepted")
	}
	p = twoInstrLoop(2)
	p.Body[1].BrGen = 2
	if err := p.Validate(); err == nil {
		t.Error("out-of-range branch generator accepted")
	}
	p = twoInstrLoop(0)
	if err := p.Validate(); err == nil {
		t.Error("zero iterations accepted")
	}
	p = twoInstrLoop(2)
	p.Body = nil
	if err := p.Validate(); err == nil {
		t.Error("empty body accepted")
	}
}

func TestPointerChaseWraps(t *testing.T) {
	g := PointerChase{Base: 0x1000, Stride: 64, Region: 256}
	if g.Addr(0) != 0x1000 {
		t.Errorf("iteration 0 at %#x", g.Addr(0))
	}
	if g.Addr(3) != 0x10c0 {
		t.Errorf("iteration 3 at %#x", g.Addr(3))
	}
	if g.Addr(4) != 0x1000 {
		t.Errorf("iteration 4 should wrap to base, got %#x", g.Addr(4))
	}
	if g.Addr(-1) != 0x1000 {
		t.Errorf("init access should hit the base")
	}
}

func TestLineSweepLagsAndClamps(t *testing.T) {
	g := LineSweep{Base: 0, Stride: 64, Region: 1024, Offset: 8, Lag: 1}
	if g.Addr(0) != 8 {
		t.Errorf("lag clamps at iteration 0: got %#x", g.Addr(0))
	}
	if g.Addr(5) != 4*64+8 {
		t.Errorf("iteration 5 sweeps line 4: got %#x", g.Addr(5))
	}
}

func TestRandomWalkDeterministicAligned(t *testing.T) {
	g := RandomWalk{Base: 0x2000, Region: 4096, Seed: 9}
	for i := int64(0); i < 100; i++ {
		a, b := g.Addr(i), g.Addr(i)
		if a != b {
			t.Fatalf("RandomWalk not deterministic at %d", i)
		}
		if a < 0x2000 || a >= 0x2000+4096 {
			t.Fatalf("address %#x outside region", a)
		}
		if a%8 != 0 {
			t.Fatalf("address %#x not 8-byte aligned", a)
		}
	}
}

func TestStridedBlockPhase(t *testing.T) {
	g := StridedBlock{Base: 0, Stride: 64, Region: 256, Phase: 128}
	if g.Addr(0) != 128 {
		t.Errorf("phase ignored: %#x", g.Addr(0))
	}
	if g.Addr(2) != 0 {
		t.Errorf("wrap with phase: %#x", g.Addr(2))
	}
}

func TestBranchGenerators(t *testing.T) {
	lb := LoopBranch{Iterations: 3}
	if !lb.Taken(0) || !lb.Taken(1) || lb.Taken(2) {
		t.Error("loop branch direction wrong")
	}
	p := Periodic{Period: 8, Duty: 4, Phase: 0}
	for i := int64(0); i < 4; i++ {
		if !p.Taken(i) {
			t.Errorf("periodic should be taken at %d", i)
		}
		if p.Taken(i + 4) {
			t.Errorf("periodic should fall through at %d", i+4)
		}
	}
	// A phase shift rotates the pattern.
	p2 := Periodic{Period: 8, Duty: 4, Phase: 4}
	if p2.Taken(0) {
		t.Error("phase shift not applied")
	}
	// Bernoulli respects its probability within sampling noise.
	b := Bernoulli{Seed: 17, P: 0.2}
	taken := 0
	const n = 20000
	for i := int64(0); i < n; i++ {
		if b.Taken(i) {
			taken++
		}
	}
	f := float64(taken) / n
	if f < 0.17 || f > 0.23 {
		t.Errorf("bernoulli(0.2) fired at rate %.3f", f)
	}
}

// Property: all address generators are pure (stateless) and stay within
// [Base, Base+Region).
func TestQuickGeneratorsPureAndBounded(t *testing.T) {
	f := func(seed uint64, iter int64) bool {
		gens := []AddrGen{
			PointerChase{Base: 0x1000, Stride: 64, Region: 4096},
			LineSweep{Base: 0x1000, Stride: 64, Region: 4096, Offset: uint64(seed % 64), Lag: 2},
			RandomWalk{Base: 0x1000, Region: 4096, Seed: seed},
			StridedBlock{Base: 0x1000, Stride: 8, Region: 4096, Phase: seed % 4096},
		}
		if iter < 0 {
			iter = -iter
		}
		for _, g := range gens {
			a1, a2 := g.Addr(iter), g.Addr(iter)
			if a1 != a2 {
				return false
			}
			if a1 < 0x1000 || a1 >= 0x1000+4096+64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestListingContainsStructure(t *testing.T) {
	p := twoInstrLoop(2)
	l := p.Listing()
	for _, want := range []string{"init:", "loop:", "ldq", "br", "chase base"} {
		if !strings.Contains(l, want) {
			t.Errorf("listing missing %q:\n%s", want, l)
		}
	}
}

// TestProgramFingerprint locks the content-address contract for
// programs: simulation-relevant differences (instructions, generator
// state, iteration count) change the fingerprint; cosmetic labels do
// not.
func TestProgramFingerprint(t *testing.T) {
	build := func() *Program {
		return &Program{
			Name: "p",
			Init: []isa.Instr{{Op: isa.OpAdd, Dest: 1, Src1: isa.RZero, Imm: 1}},
			Body: []isa.Instr{
				{Op: isa.OpLoad, Dest: 2, Src1: 1, AddrGen: 0},
				{Op: isa.OpBranch, Dest: isa.RZero, Src1: 2, BrGen: 0},
			},
			AddrGens:   []AddrGen{PointerChase{Base: 0x1000, Stride: 64, Region: 1 << 20}},
			BrGens:     []BranchGen{LoopBranch{Iterations: 100}},
			Iterations: 100,
		}
	}
	a, b := build(), build()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical programs fingerprint differently")
	}
	b.Body[0].Src1 = 3
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("instruction change not reflected")
	}
	c := build()
	c.AddrGens[0] = PointerChase{Base: 0x1000, Stride: 64, Region: 1 << 21}
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("address-generator state change not reflected")
	}
	d := build()
	d.Iterations = 101
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("iteration count change not reflected")
	}
	e := build()
	e.Body[0].Label = "decorative"
	if a.Fingerprint() != e.Fingerprint() {
		t.Error("listing label changed the fingerprint")
	}
	// Generators of different types with coincidentally equal fields must
	// not collide (%T participates).
	f := build()
	f.AddrGens[0] = StridedBlock{Base: 0x1000, Stride: 64, Region: 1 << 20}
	g := build()
	g.AddrGens[0] = PointerChase{Base: 0x1000, Stride: 64, Region: 1 << 20}
	if f.Fingerprint() == g.Fingerprint() {
		t.Error("generator type does not participate in the fingerprint")
	}
}

// TestProgramFingerprintCoversEveryInstrField mutates each isa.Instr
// field reflectively and asserts the program fingerprint reacts — the
// serialisation lists instruction fields by hand, so this fails if
// isa.Instr grows a field the fingerprint silently omits. Label is the
// one documented exception (listing decoration only).
func TestProgramFingerprintCoversEveryInstrField(t *testing.T) {
	p := &Program{
		Name:       "p",
		Body:       []isa.Instr{{Op: isa.OpAdd, Dest: 1, Src1: 2, Src2: 3, Imm: 4, RegReg: true}},
		Iterations: 1,
	}
	base := p.Fingerprint()
	v := reflect.ValueOf(&p.Body[0]).Elem()
	tp := v.Type()
	for i := 0; i < tp.NumField(); i++ {
		f := v.Field(i)
		name := tp.Field(i).Name
		var restore func()
		switch f.Kind() {
		case reflect.Uint8:
			old := f.Uint()
			f.SetUint(old + 1)
			restore = func() { f.SetUint(old) }
		case reflect.Int16, reflect.Int:
			old := f.Int()
			f.SetInt(old + 1)
			restore = func() { f.SetInt(old) }
		case reflect.Bool:
			old := f.Bool()
			f.SetBool(!old)
			restore = func() { f.SetBool(old) }
		case reflect.String:
			old := f.String()
			f.SetString(old + "'")
			restore = func() { f.SetString(old) }
		default:
			t.Fatalf("isa.Instr.%s: unhandled kind %v — extend the test", name, f.Kind())
		}
		changed := p.Fingerprint() != base
		restore()
		if name == "Label" {
			if changed {
				t.Error("Label participates in the fingerprint; it must not")
			}
			continue
		}
		if !changed {
			t.Errorf("mutating isa.Instr.%s does not change the fingerprint", name)
		}
	}
}

// TestProgramFingerprintKnowsEveryField pins Program's field set: the
// fingerprint serialises fields by hand, so anyone adding a field must
// come here, teach Fingerprint about it (or document an exclusion) and
// extend this list.
func TestProgramFingerprintKnowsEveryField(t *testing.T) {
	known := map[string]bool{
		"Name": true, "Init": true, "Body": true, "AddrGens": true,
		"BrGens": true, "Iterations": true, "FootprintBytes": true,
	}
	tp := reflect.TypeOf(Program{})
	if tp.NumField() != len(known) {
		t.Errorf("Program has %d fields, fingerprint test knows %d", tp.NumField(), len(known))
	}
	for i := 0; i < tp.NumField(); i++ {
		if !known[tp.Field(i).Name] {
			t.Errorf("Program.%s is unknown to the fingerprint — serialise it in Fingerprint and add it here",
				tp.Field(i).Name)
		}
	}
}

// TestFingerprintDistinguishesGeneratorPrecision is the regression test
// for hashing generators through their lossy Stringer output (Bernoulli
// rounds P to three decimals): programs differing only in fine-grained
// generator parameters must not alias.
func TestFingerprintDistinguishesGeneratorPrecision(t *testing.T) {
	build := func(p float64, seed uint64) *Program {
		return &Program{
			Name: "fp",
			Body: []isa.Instr{
				{Op: isa.OpAdd, Dest: 3, Src1: 3, Imm: 1},
				{Op: isa.OpBranch, Dest: isa.RZero, Src1: 2, BrGen: 0},
			},
			BrGens:     []BranchGen{Bernoulli{Seed: seed, P: p}},
			Iterations: 100,
		}
	}
	a := build(0.1234, 1)
	if fp := build(0.12341, 1).Fingerprint(); fp == a.Fingerprint() {
		t.Error("programs differing in Bernoulli P beyond 3 decimals alias")
	}
	if fp := build(0.1234, 2).Fingerprint(); fp == a.Fingerprint() {
		t.Error("programs differing in Bernoulli seed alias")
	}
	if fp := build(0.1234, 1).Fingerprint(); fp != a.Fingerprint() {
		t.Error("identical programs fingerprint differently")
	}
}
