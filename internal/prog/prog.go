// Package prog represents the synthetic loop programs executed by the
// pipeline model: a one-time initialisation block followed by a loop body
// that repeats for a configurable number of iterations.
//
// Programs are static; all per-iteration dynamic information (effective
// addresses, branch outcomes) is produced by pure generator functions of
// the iteration number. This keeps runs of tens of millions of dynamic
// instructions trace-free and bit-reproducible, and makes wrong-path
// re-fetch trivially consistent.
package prog

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"

	"avfstress/internal/isa"
)

// Program is a static synthetic program.
type Program struct {
	Name string

	// Init executes once before the loop. It exists to define every
	// architected register before use (the paper's generator initialises
	// its memory region and pointer-chase state here).
	Init []isa.Instr

	// Body is the loop kernel. By convention the final instruction is the
	// loop backedge branch.
	Body []isa.Instr

	// AddrGens produce effective addresses for memory instructions; a
	// memory instruction's AddrGen field indexes this table.
	AddrGens []AddrGen

	// BrGens produce branch outcomes; a branch's BrGen field indexes this
	// table.
	BrGens []BranchGen

	// Iterations is the nominal loop trip count. Runs may be cut short by
	// the simulator's instruction budget.
	Iterations int64

	// FootprintBytes documents the data-memory region the program
	// touches (used in reports only).
	FootprintBytes uint64
}

// Base program-counter values. Instructions are isa.InstrBytes wide.
const (
	InitBase uint64 = 0x0000_1000
	BodyBase uint64 = 0x0001_0000
)

// PCOf returns the program counter of body instruction idx.
func PCOf(idx int) uint64 { return BodyBase + uint64(idx)*isa.InstrBytes }

// Validate checks structural integrity: instruction validity, generator
// references, and loop shape. It is exercised heavily by the codegen and
// failure-injection tests.
func (p *Program) Validate() error {
	if len(p.Body) == 0 {
		return fmt.Errorf("prog %q: empty body", p.Name)
	}
	if p.Iterations <= 0 {
		return fmt.Errorf("prog %q: non-positive iteration count %d", p.Name, p.Iterations)
	}
	check := func(where string, ins []isa.Instr) error {
		for i, in := range ins {
			if err := in.Validate(); err != nil {
				return fmt.Errorf("prog %q: %s[%d]: %w", p.Name, where, i, err)
			}
			if in.Op.IsMem() {
				if in.AddrGen < 0 || in.AddrGen >= len(p.AddrGens) {
					return fmt.Errorf("prog %q: %s[%d]: address generator %d out of range (have %d)",
						p.Name, where, i, in.AddrGen, len(p.AddrGens))
				}
			}
			if in.Op == isa.OpBranch {
				if in.BrGen < 0 || in.BrGen >= len(p.BrGens) {
					return fmt.Errorf("prog %q: %s[%d]: branch generator %d out of range (have %d)",
						p.Name, where, i, in.BrGen, len(p.BrGens))
				}
			}
		}
		return nil
	}
	if err := check("init", p.Init); err != nil {
		return err
	}
	return check("body", p.Body)
}

// Listing renders the program as annotated assembly, in the spirit of the
// paper's generated "C with embedded Alpha assembly".
func (p *Program) Listing() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; program %s\n", p.Name)
	fmt.Fprintf(&b, "; iterations=%d footprint=%d bytes\n", p.Iterations, p.FootprintBytes)
	for i, g := range p.AddrGens {
		fmt.Fprintf(&b, "; ag%-2d %s\n", i, g)
	}
	for i, g := range p.BrGens {
		fmt.Fprintf(&b, "; bg%-2d %s\n", i, g)
	}
	b.WriteString("init:\n")
	for i, in := range p.Init {
		fmt.Fprintf(&b, "  %04x  %-32s", InitBase+uint64(i)*isa.InstrBytes, in.String())
		if in.Label != "" {
			fmt.Fprintf(&b, " ; %s", in.Label)
		}
		b.WriteByte('\n')
	}
	b.WriteString("loop:\n")
	for i, in := range p.Body {
		fmt.Fprintf(&b, "  %04x  %-32s", PCOf(i), in.String())
		if in.Label != "" {
			fmt.Fprintf(&b, " ; %s", in.Label)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// StaticLen returns the total static instruction count.
func (p *Program) StaticLen() int { return len(p.Init) + len(p.Body) }

// Fingerprint returns a compact content address of the program for
// internal/simcache keys: a hex SHA-256 over a binary encoding of
// everything that influences execution. The header is the name (which
// reaches avf.Result.Workload) length-prefixed, then the iteration
// count and the footprint; each of the init and body sections follows
// as its tag, its instruction count and one fixed-width record per
// instruction (Op, Dest, Src1, Src2 one byte each, Imm two bytes, a
// flags byte for RegReg and UnACE, AddrGen and BrGen eight bytes each;
// integers little-endian). Instruction labels are excluded — they only
// decorate listings. Last come the generator tables, each as a count
// and one length-prefixed %#v rendering per generator. The built-in
// generators are plain value structs whose %#v is lossless; custom
// generator implementations must render their simulation-relevant
// state under %#v too.
func (p *Program) Fingerprint() string {
	// A built-in generator renders in at most about 90 bytes, so the
	// buffer is sized once.
	n := 8 + len(p.Name) + 16 + 2*(4+8) + instrRecord*(len(p.Init)+len(p.Body)) +
		16 + (8+96)*(len(p.AddrGens)+len(p.BrGens))
	b := make([]byte, 0, n)
	le := binary.LittleEndian
	b = le.AppendUint64(b, uint64(len(p.Name)))
	b = append(b, p.Name...)
	b = le.AppendUint64(b, uint64(p.Iterations))
	b = le.AppendUint64(b, p.FootprintBytes)
	section := func(tag string, ins []isa.Instr) {
		b = append(b, tag...)
		b = le.AppendUint64(b, uint64(len(ins)))
		for i := range ins {
			in := &ins[i]
			var flags byte
			if in.RegReg {
				flags |= 1
			}
			if in.UnACE {
				flags |= 2
			}
			b = append(b, byte(in.Op), byte(in.Dest), byte(in.Src1), byte(in.Src2))
			b = le.AppendUint16(b, uint16(in.Imm))
			b = append(b, flags)
			b = le.AppendUint64(b, uint64(in.AddrGen))
			b = le.AppendUint64(b, uint64(in.BrGen))
		}
	}
	section("init", p.Init)
	section("body", p.Body)
	// %#v, not %+v: the generators implement Stringer for listings, and
	// %+v would hash those lossy display strings (Bernoulli, for one,
	// rounds its probability to three decimals), aliasing distinct
	// programs. %#v renders the raw fields exactly and includes the
	// concrete type name. The length is patched in after the rendering.
	gen := func(g any) {
		at := len(b)
		b = le.AppendUint64(b, 0)
		b = fmt.Appendf(b, "%#v", g)
		le.PutUint64(b[at:], uint64(len(b)-at-8))
	}
	b = le.AppendUint64(b, uint64(len(p.AddrGens)))
	for _, g := range p.AddrGens {
		gen(g)
	}
	b = le.AppendUint64(b, uint64(len(p.BrGens)))
	for _, g := range p.BrGens {
		gen(g)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// instrRecord is the width of one instruction in the Fingerprint
// encoding.
const instrRecord = 4 + 2 + 1 + 8 + 8

// Dyn is one dynamic instruction instance handed to the pipeline.
type Dyn struct {
	// Static points at the static instruction. It is never nil for
	// instructions produced by a Stream.
	Static *isa.Instr
	// Seq is the global dynamic sequence number, starting at 0.
	Seq int64
	// Iter is the loop iteration (-1 for init instructions).
	Iter int64
	// PC is the program counter of the instance.
	PC uint64
	// Addr is the effective address for memory ops (0 otherwise).
	Addr uint64
	// Taken is the actual branch outcome for OpBranch.
	Taken bool
}

// Stream lazily produces the dynamic instruction sequence of a program.
// The zero value is not usable; construct with NewStream.
type Stream struct {
	p       *Program
	inInit  bool
	idx     int
	iter    int64
	seq     int64
	scratch []isa.Reg
}

// NewStream returns a stream positioned at the first instruction.
func NewStream(p *Program) *Stream {
	return &Stream{p: p, inInit: len(p.Init) > 0}
}

// Reset rewinds the stream to the first instruction.
func (s *Stream) Reset() {
	s.inInit = len(s.p.Init) > 0
	s.idx, s.iter, s.seq = 0, 0, 0
}

// ResetTo rebinds the stream to program p and rewinds it, reusing the
// Stream allocation (used by pipe.Pipeline.Reset when pooling pipelines
// across GA fitness evaluations).
func (s *Stream) ResetTo(p *Program) {
	s.p = p
	s.Reset()
}

// Program returns the underlying program.
func (s *Stream) Program() *Program { return s.p }

// StreamState is the resumable cursor of a Stream: everything beyond the
// program itself that determines the remaining dynamic sequence. It is a
// plain value so pipe checkpoints can capture and serialise it.
type StreamState struct {
	InInit bool
	Idx    int
	Iter   int64
	Seq    int64
}

// State returns the stream's current cursor.
func (s *Stream) State() StreamState {
	return StreamState{InInit: s.inInit, Idx: s.idx, Iter: s.iter, Seq: s.seq}
}

// SetState repositions the stream at a previously captured cursor. The
// stream must already be bound (via NewStream or ResetTo) to the same
// program the state was captured from.
func (s *Stream) SetState(st StreamState) {
	s.inInit = st.InInit
	s.idx = st.Idx
	s.iter = st.Iter
	s.seq = st.Seq
}

// Next returns the next dynamic instruction. ok is false once the
// program's iteration count is exhausted.
func (s *Stream) Next() (d Dyn, ok bool) {
	ok = s.NextInto(&d)
	return d, ok
}

// NextInto writes the next dynamic instruction into d, avoiding the
// struct copies of Next on the simulator's per-fetch hot path. It
// reports false (leaving d untouched) once the program's iteration count
// is exhausted.
func (s *Stream) NextInto(d *Dyn) bool {
	p := s.p
	if s.inInit {
		s.materialise(d, &p.Init[s.idx], -1)
		s.idx++
		if s.idx == len(p.Init) {
			s.inInit = false
			s.idx = 0
		}
		return true
	}
	if s.iter >= p.Iterations {
		return false
	}
	s.materialise(d, &p.Body[s.idx], s.iter)
	s.idx++
	if s.idx == len(p.Body) {
		s.idx = 0
		s.iter++
	}
	return true
}

func (s *Stream) materialise(d *Dyn, in *isa.Instr, iter int64) {
	d.Static = in
	d.Seq = s.seq
	d.Iter = iter
	d.Addr = 0
	d.Taken = false
	if iter < 0 {
		d.PC = InitBase + uint64(s.idx)*isa.InstrBytes
	} else {
		d.PC = PCOf(s.idx)
	}
	if in.Op.IsMem() {
		// Type-switch devirtualisation: the built-in generators resolve to
		// direct (inlinable) calls on the per-fetch hot path, the
		// interface call remains as the general fallback.
		switch g := s.p.AddrGens[in.AddrGen].(type) {
		case LineSweep:
			d.Addr = g.Addr(iter)
		case PointerChase:
			d.Addr = g.Addr(iter)
		case StridedBlock:
			d.Addr = g.Addr(iter)
		case RandomWalk:
			d.Addr = g.Addr(iter)
		case Fixed:
			d.Addr = g.Address
		default:
			d.Addr = g.Addr(iter)
		}
	}
	if in.Op == isa.OpBranch {
		switch g := s.p.BrGens[in.BrGen].(type) {
		case LoopBranch:
			d.Taken = g.Taken(iter)
		case Periodic:
			d.Taken = g.Taken(iter)
		case Bernoulli:
			d.Taken = g.Taken(iter)
		default:
			d.Taken = g.Taken(iter)
		}
	}
	s.seq++
}
