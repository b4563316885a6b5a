// Package rootcause attributes fault-injection outcomes to program
// instructions — the software-perspective companion to the
// hardware-structure AVF tables (DESIGN.md §14). For every corrupted
// trial the replay engine records the first divergent commit: the
// earliest-committing instruction whose architectural effect consumed
// the flipped bit (pipe.Diverge). This package walks the static def-use
// chain one level back from that consumer to the instruction whose
// value the flipped bit held — the root cause — and aggregates
// per-instruction and per-instruction-class vulnerability tables with
// Wilson confidence intervals and bit-cycle-normalised corruption
// shares.
//
// The walk is deliberately one-level, not transitive, mirroring the
// liveness pass's dead-definition rule: the flipped bit held exactly
// one value, produced by exactly one instruction; chasing further back
// would attribute the corruption to instructions whose own values were
// never touched. The differential harness in internal/inject
// (TestRootCauseSoundAgainstReplay) proves every attribution lies on
// the dynamic def-use path into the first divergent commit.
//
// Attribution scope is the core structures. The cache/TLB fate watches
// observe Biswas lifetime transitions, not instruction identity, so
// memory-hierarchy corruption aggregates as unattributed mass — the
// tables say so explicitly rather than guessing.
package rootcause

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"avfstress/internal/isa"
	"avfstress/internal/liveness"
	"avfstress/internal/pipe"
	"avfstress/internal/prog"
	"avfstress/internal/report"
	"avfstress/internal/uarch"
)

// Cause is the root-cause attribution of one corrupted trial.
type Cause struct {
	// PC and Op identify the attributed program instruction.
	PC uint64
	Op isa.Op
	// Instr points into the program's Init/Body slices.
	Instr *isa.Instr
	// Demanded reports whether the flipped bit lies inside the
	// bit-level demand mask the consumer places on the corrupted value
	// (isa.SrcDemand with full downstream demand). The replay's fault
	// model is value-level, so un-demanded bits still corrupt; the flag
	// measures how much of the attributed mass bit-level reasoning
	// would tighten away.
	Demanded bool
}

// Attribute resolves the root-cause instruction of one corrupted trial:
// the fault names the flipped bit's holding structure, the diverge
// record names the consuming instruction, and the static def-use walk
// (liveness.LastWriter over init·body^ω) maps the consumed operand back
// to its producer. Returns false when the corruption has no attributable
// instruction (memory-hierarchy structures, or a consumer PC outside
// the program).
func Attribute(p *prog.Program, f pipe.Fault, d pipe.Diverge) (Cause, bool) {
	if d.Seq < 0 {
		return Cause{}, false
	}
	cons, inBody, idx := instrAt(p, d.PC)
	if cons == nil {
		return Cause{}, false
	}
	// Which operand of the consumer did the flipped value flow through?
	// Queue-structure flips corrupt the consumer's own in-flight state
	// (its queue entry, its executing result, its loaded data), so the
	// consumer is its own producer; register-file and store/load operand
	// flips corrupt a register value the consumer read, so the producer
	// is that register's last static writer before the consumer.
	var src isa.Reg
	var slot int
	switch f.Structure {
	case uarch.RF:
		if d.SrcSlot < 0 {
			return Cause{}, false
		}
		slot = int(d.SrcSlot)
		src = isa.SrcRegAt(cons, slot)
	case uarch.LQTag:
		// The queued tag is the load's address, generated from the base
		// register.
		slot, src = 0, cons.Src1
	case uarch.SQTag:
		slot, src = 0, cons.Src1
	case uarch.SQData:
		// The store's data operand.
		slot, src = 1, cons.Src2
	case uarch.IQ, uarch.ROB, uarch.FU, uarch.LQData:
		return Cause{PC: d.PC, Op: cons.Op, Instr: cons, Demanded: true}, true
	default:
		return Cause{}, false
	}
	demanded := bitDemanded(cons, slot, f, uarchRegBits(f.Structure))
	producer, ok := liveness.LastWriter(p, inBody, idx, src)
	if !ok {
		// The operand is RZero or never defined: the flipped bit held a
		// power-on value the consumer still architecturally consumed.
		// Attribute the consumer itself rather than inventing a producer.
		return Cause{PC: d.PC, Op: cons.Op, Instr: cons, Demanded: demanded}, true
	}
	return Cause{PC: pcOf(p, producer), Op: producer.Op, Instr: producer, Demanded: demanded}, true
}

// uarchRegBits returns the bit width of one value-holding entry of the
// structure, for locating the flipped bit inside the consumed value.
// The register file and the LSQ halves hold 64-bit values.
func uarchRegBits(s uarch.Structure) uint64 { _ = s; return 64 }

// bitDemanded reports whether the flipped bit (position within its
// 64-bit value) lies in the demand mask the consumer places on operand
// slot through isa.SrcDemand under full downstream demand.
func bitDemanded(cons *isa.Instr, slot int, f pipe.Fault, width uint64) bool {
	s1, s2 := isa.SrcDemand(cons, isa.AllBits)
	mask := s1
	if slot == 1 {
		mask = s2
	}
	bit := f.Bit % width
	return mask>>bit&1 == 1
}

// instrAt maps a PC back into the program.
func instrAt(p *prog.Program, pc uint64) (in *isa.Instr, inBody bool, idx int) {
	if pc >= prog.BodyBase {
		i := int((pc - prog.BodyBase) / isa.InstrBytes)
		if i < len(p.Body) {
			return &p.Body[i], true, i
		}
		return nil, false, 0
	}
	if pc >= prog.InitBase {
		i := int((pc - prog.InitBase) / isa.InstrBytes)
		if i < len(p.Init) {
			return &p.Init[i], false, i
		}
	}
	return nil, false, 0
}

// pcOf maps a static-instruction pointer back to its PC.
func pcOf(p *prog.Program, in *isa.Instr) uint64 {
	for i := range p.Init {
		if in == &p.Init[i] {
			return prog.InitBase + uint64(i)*isa.InstrBytes
		}
	}
	for i := range p.Body {
		if in == &p.Body[i] {
			return prog.PCOf(i)
		}
	}
	return 0
}

// Trial is one corrupted trial submitted for aggregation.
type Trial struct {
	Fault   pipe.Fault
	Diverge pipe.Diverge
	// DUE marks trials on detection-protected structures (rate zero):
	// detected corruption rather than silent.
	DUE bool
}

// InstrRow is one program instruction's aggregated vulnerability.
type InstrRow struct {
	PC       uint64
	Op       isa.Op
	Text     string // disassembly of the attributed instruction
	SDC      int
	DUE      int
	Demanded int     // attributed trials whose flipped bit was demanded
	Share    float64 // bit-cycle-normalised share of total corruption mass
	Lo, Hi   float64 // Wilson 95% CI on attributed fraction of corrupted trials
}

// ClassRow aggregates per instruction class (opcode).
type ClassRow struct {
	Op       isa.Op
	SDC      int
	DUE      int
	Demanded int
	Share    float64
	Lo, Hi   float64
}

// Result is the root-cause analysis of one campaign.
type Result struct {
	// Corrupted counts the SDC/DUE trials examined, Attributed those
	// mapped to an instruction, Unattributed the memory-hierarchy rest.
	Corrupted    int
	Attributed   int
	Unattributed int

	// Instrs ranks instructions by attributed trials (desc, PC asc on
	// ties); Classes ranks opcodes by normalised share.
	Instrs  []InstrRow
	Classes []ClassRow
}

// Aggregate attributes every corrupted trial and folds the causes into
// per-instruction and per-class tables. sampled[s] is the number of
// replayed trials in structure s's stratum: a stratified campaign
// samples each structure's bit-cycle space with a different density, so
// each trial carries weight bits(s)/sampled(s) — its share of the
// structure's bit-cycle mass — and Share columns are normalised over
// the total corrupted mass. Iteration order is fixed (input order, then
// sorted rows), so equal inputs aggregate to byte-identical tables.
func Aggregate(p *prog.Program, cfg uarch.Config, trials []Trial, sampled map[uarch.Structure]int) *Result {
	res := &Result{}
	type acc struct {
		row    InstrRow
		weight float64
	}
	type cacc struct {
		row    ClassRow
		weight float64
	}
	instrs := map[uint64]*acc{}
	classes := map[isa.Op]*cacc{}
	var totalW float64
	for _, t := range trials {
		res.Corrupted++
		w := 1.0
		if n := sampled[t.Fault.Structure]; n > 0 {
			w = float64(uarch.Bits(cfg, t.Fault.Structure)) / float64(n)
		}
		totalW += w
		c, ok := Attribute(p, t.Fault, t.Diverge)
		if !ok {
			res.Unattributed++
			continue
		}
		res.Attributed++
		a := instrs[c.PC]
		if a == nil {
			a = &acc{row: InstrRow{PC: c.PC, Op: c.Op, Text: c.Instr.String()}}
			instrs[c.PC] = a
		}
		ca := classes[c.Op]
		if ca == nil {
			ca = &cacc{row: ClassRow{Op: c.Op}}
			classes[c.Op] = ca
		}
		if t.DUE {
			a.row.DUE++
			ca.row.DUE++
		} else {
			a.row.SDC++
			ca.row.SDC++
		}
		if c.Demanded {
			a.row.Demanded++
			ca.row.Demanded++
		}
		a.weight += w
		ca.weight += w
	}
	for _, a := range instrs {
		if totalW > 0 {
			a.row.Share = a.weight / totalW
		}
		iv := wilson(a.row.SDC+a.row.DUE, res.Corrupted)
		a.row.Lo, a.row.Hi = iv.lo, iv.hi
		res.Instrs = append(res.Instrs, a.row)
	}
	for _, ca := range classes {
		if totalW > 0 {
			ca.row.Share = ca.weight / totalW
		}
		iv := wilson(ca.row.SDC+ca.row.DUE, res.Corrupted)
		ca.row.Lo, ca.row.Hi = iv.lo, iv.hi
		res.Classes = append(res.Classes, ca.row)
	}
	sort.Slice(res.Instrs, func(i, j int) bool {
		a, b := res.Instrs[i], res.Instrs[j]
		if an, bn := a.SDC+a.DUE, b.SDC+b.DUE; an != bn {
			return an > bn
		}
		return a.PC < b.PC
	})
	sort.Slice(res.Classes, func(i, j int) bool {
		a, b := res.Classes[i], res.Classes[j]
		if a.Share != b.Share {
			return a.Share > b.Share
		}
		return a.Op < b.Op
	})
	return res
}

// SDCDensity is the attributed-SDC fraction of the examined corruption
// mass, printed per campaign in the root-cause study's report.
func (r *Result) SDCDensity() float64 {
	if r.Corrupted == 0 {
		return 0
	}
	sdc := 0
	for _, row := range r.Instrs {
		sdc += row.SDC
	}
	return float64(sdc) / float64(r.Corrupted)
}

// InstrRows renders the instruction ranking as report rows (top n;
// n <= 0 means all).
func (r *Result) InstrRows(n int) []report.RootCauseRow {
	if n <= 0 || n > len(r.Instrs) {
		n = len(r.Instrs)
	}
	rows := make([]report.RootCauseRow, 0, n)
	for _, row := range r.Instrs[:n] {
		rows = append(rows, report.RootCauseRow{
			Name: fmt.Sprintf("%05x  %s", row.PC, row.Text),
			SDC:  row.SDC, DUE: row.DUE, Demanded: row.Demanded,
			Share: row.Share, Lo: row.Lo, Hi: row.Hi,
		})
	}
	return rows
}

// ClassRows renders the instruction-class ranking as report rows.
func (r *Result) ClassRows() []report.RootCauseRow {
	rows := make([]report.RootCauseRow, 0, len(r.Classes))
	for _, row := range r.Classes {
		rows = append(rows, report.RootCauseRow{
			Name: row.Op.String(),
			SDC:  row.SDC, DUE: row.DUE, Demanded: row.Demanded,
			Share: row.Share, Lo: row.Lo, Hi: row.Hi,
		})
	}
	return rows
}

// String renders the full root-cause report: scope line, instruction
// ranking and class ranking.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "root cause: %d corrupted, %d attributed, %d unattributed (memory hierarchy)\n",
		r.Corrupted, r.Attributed, r.Unattributed)
	b.WriteString(report.RootCauseTable("Root-cause instructions", r.InstrRows(0)))
	b.WriteString(report.RootCauseTable("Root-cause instruction classes", r.ClassRows()))
	return b.String()
}

// interval is a Wilson 95% score interval (boundary-safe at k=0, k=n).
type interval struct{ lo, hi float64 }

const z95 = 1.959963984540054

func wilson(k, n int) interval {
	if n <= 0 {
		return interval{}
	}
	p := float64(k) / float64(n)
	nn := float64(n)
	z2 := z95 * z95
	denom := 1 + z2/nn
	center := (p + z2/(2*nn)) / denom
	half := z95 * math.Sqrt(p*(1-p)/nn+z2/(4*nn*nn)) / denom
	return interval{lo: clamp01(center - half), hi: clamp01(center + half)}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
