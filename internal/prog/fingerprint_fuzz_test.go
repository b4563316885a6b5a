package prog

import (
	"math"
	"reflect"
	"testing"

	"avfstress/internal/isa"
)

// FuzzProgramFingerprint: two programs decoded from fuzz bytes have
// equal fingerprints exactly when they are equal, ignoring instruction
// labels and comparing floats by bit pattern. The decoder draws every
// field at full width some of the time, so an encoding that truncated a
// field, or let one section's bytes pass for another's, would alias two
// programs. The seed corpus (testdata/fuzz) holds identical pairs and
// pairs differing in one field, in section membership and in generator
// type.
func FuzzProgramFingerprint(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		pa, pb := decodeProgram(a), decodeProgram(b)
		same, equal := pa.Fingerprint() == pb.Fingerprint(), sameProgram(pa, pb)
		if same != equal {
			t.Fatalf("fingerprints equal: %v, programs equal: %v\na: %#v\nb: %#v", same, equal, pa, pb)
		}
	})
}

// fuzzBytes hands out fuzz input; past the end it yields zeros.
type fuzzBytes []byte

func (r *fuzzBytes) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	c := (*r)[0]
	*r = (*r)[1:]
	return c
}

func (r *fuzzBytes) u64(n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(r.byte()) << (8 * i)
	}
	return v
}

// value draws a small, a 16-bit, a full 64-bit or a small negative
// value, so narrow domains collide often and wide ones reach every bit.
func (r *fuzzBytes) value() uint64 {
	switch r.byte() % 4 {
	case 0:
		return uint64(r.byte())
	case 1:
		return r.u64(2)
	case 2:
		return r.u64(8)
	}
	return -uint64(r.byte())
}

func decodeProgram(data []byte) *Program {
	r := fuzzBytes(data)
	p := &Program{}
	name := make([]byte, r.byte()%4)
	for i := range name {
		name[i] = r.byte()
	}
	p.Name = string(name)
	p.Iterations = int64(r.value())
	p.FootprintBytes = r.value()
	instrs := func(n byte) []isa.Instr {
		var ins []isa.Instr
		for i := byte(0); i < n; i++ {
			flags := r.byte()
			in := isa.Instr{
				Op: isa.Op(r.byte()), Dest: isa.Reg(r.byte()),
				Src1: isa.Reg(r.byte()), Src2: isa.Reg(r.byte()),
				Imm:    int16(r.u64(2)),
				RegReg: flags&1 != 0, UnACE: flags&2 != 0,
				AddrGen: int(r.value()), BrGen: int(r.value()),
			}
			if flags&4 != 0 {
				in.Label = string(rune('a' + flags>>3))
			}
			ins = append(ins, in)
		}
		return ins
	}
	p.Init = instrs(r.byte() % 3)
	p.Body = instrs(r.byte() % 4)
	for n := r.byte() % 3; n > 0; n-- {
		switch r.byte() % 5 {
		case 0:
			p.AddrGens = append(p.AddrGens, PointerChase{Base: r.value(), Stride: r.value(), Region: r.value()})
		case 1:
			p.AddrGens = append(p.AddrGens, LineSweep{Base: r.value(), Stride: r.value(), Region: r.value(),
				Offset: r.value(), Lag: int64(r.value())})
		case 2:
			p.AddrGens = append(p.AddrGens, Fixed{Address: r.value()})
		case 3:
			p.AddrGens = append(p.AddrGens, RandomWalk{Base: r.value(), Region: r.value(), Seed: r.value(),
				Align: r.value()})
		default:
			p.AddrGens = append(p.AddrGens, StridedBlock{Base: r.value(), Stride: r.value(), Region: r.value(),
				Phase: r.value()})
		}
	}
	for n := r.byte() % 3; n > 0; n-- {
		switch r.byte() % 3 {
		case 0:
			p.BrGens = append(p.BrGens, LoopBranch{Iterations: int64(r.value())})
		case 1:
			// %#v prints every NaN alike, and a NaN probability behaves
			// alike whatever its payload, so the decoder draws one NaN.
			prob := math.Float64frombits(r.value())
			if math.IsNaN(prob) {
				prob = math.NaN()
			}
			p.BrGens = append(p.BrGens, Bernoulli{Seed: r.value(), P: prob})
		default:
			p.BrGens = append(p.BrGens, Periodic{Period: int64(r.value()), Duty: int64(r.value()),
				Phase: int64(r.value())})
		}
	}
	return p
}

// sameProgram is the fuzz oracle: field-by-field equality without
// labels, floats compared by bit pattern.
func sameProgram(a, b *Program) bool {
	if a.Name != b.Name || a.Iterations != b.Iterations || a.FootprintBytes != b.FootprintBytes ||
		!sameInstrs(a.Init, b.Init) || !sameInstrs(a.Body, b.Body) ||
		len(a.AddrGens) != len(b.AddrGens) || len(a.BrGens) != len(b.BrGens) {
		return false
	}
	for i := range a.AddrGens {
		if !sameGen(a.AddrGens[i], b.AddrGens[i]) {
			return false
		}
	}
	for i := range a.BrGens {
		if !sameGen(a.BrGens[i], b.BrGens[i]) {
			return false
		}
	}
	return true
}

func sameInstrs(a, b []isa.Instr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		x.Label, y.Label = "", ""
		if x != y {
			return false
		}
	}
	return true
}

func sameGen(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Type() != vb.Type() {
		return false
	}
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if fa.Interface() != fb.Interface() {
			return false
		}
	}
	return true
}
