// Package pipe is the cycle-level out-of-order core model (the
// reproduction's substitute for SimAlpha) with built-in ACE/AVF
// accounting (the substitute for SimSoda).
//
// The model implements the mechanisms the paper's methodology exploits:
//
//   - a 4-wide fetch/map/issue/commit pipeline with an issue queue whose
//     entries are freed at issue (21264-style), a reorder buffer, load
//     and store queues, and a physical register file with free-list
//     renaming;
//   - at most two memory operations issued per cycle (the 21264
//     restriction the paper names as limiting LQ/SQ fill rate);
//   - long-latency loads through a two-level cache hierarchy and DTLB;
//   - branch prediction with wrong-path fetch and a fixed redirect
//     penalty; wrong-path work is un-ACE and reduces queue AVF, exactly
//     the front-end masking effect of §IV-A.4;
//   - perfect memory disambiguation with store→load forwarding (the
//     synthetic programs have statically known addresses).
//
// Documented simplifications versus a full 21264 model: fetch and map
// are merged (redirect latency is modelled by the misprediction penalty),
// branch predictor state updates at fetch, wrong-path memory operations
// do not pollute the caches, and there is no bandwidth contention between
// hierarchy levels.
//
// The core is event-driven rather than scan-based: completions are
// scheduled on a calendar queue (timing wheel) keyed by cycle
// (events.go), operand wakeups ride the producers' completion broadcasts
// through per-register waiter lists, and issue selection walks a ready
// bitmap over the ROB ring in age order (readyq.go), so per-cycle work
// is proportional to the number of state changes, not to the ROB size.
// DESIGN.md §2 states the invariants.
//
// Because every run is deterministic, the pipeline also serves as the
// replay engine for Monte Carlo fault injection (inject.go): RunFault
// re-runs a program with a single-bit fault applied at a chosen cycle
// and reports whether the flip reaches committed architectural state,
// and Pool.SimulateGoldenRecorded captures the commit digest replays
// are diffed against (DESIGN.md §9).
package pipe

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"avfstress/internal/avf"
	"avfstress/internal/bpred"
	"avfstress/internal/cache"
	"avfstress/internal/isa"
	"avfstress/internal/prog"
	"avfstress/internal/uarch"
)

const (
	noReg   int16 = -1
	farAway int64 = math.MaxInt64 / 4
)

type uopState uint8

const (
	sWaiting uopState = iota // dispatched, not yet issued
	sIssued                  // executing
	sDone                    // completed, awaiting commit
)

// uop is one in-flight dynamic instruction (a ROB entry). Only the
// static-instruction pointer and the effective address survive from the
// dynamic instance (everything else the stages need is re-derived or
// captured in dedicated fields), keeping the ROB ring compact — at() is
// on every hot path.
type uop struct {
	static *isa.Instr
	addr   uint64 // effective address (memory ops)

	// dynSeq is the dynamic stream sequence number (prog.Dyn.Seq; -1
	// for synthetic wrong-path fetches). Injection replays report it as
	// the identity of a corrupted trial's first divergent commit.
	dynSeq int64

	dispatchCycle int64
	issueCycle    int64
	doneCycle     int64
	dataReady     int64 // loads: cycle the fill data arrived
	execLatency   int64 // FU stage-cycles consumed

	// gen counts dispatches into this ROB slot; scheduled events carry
	// the value so entries for flushed uops die on a mismatch.
	gen uint32

	destPhys int16
	oldPhys  int16
	src      [2]int16

	// opc caches static.Op so the stage hot paths avoid chasing the
	// static-instruction pointer.
	opc   isa.Op
	state uopState
	// pendingSrcs is the number of source operands not yet ready; the
	// uop enters the ready queue when it reaches zero.
	pendingSrcs uint8

	wrongPath bool
	ace       bool
	inIQ      bool
	inLQ      bool
	inSQ      bool
	forwarded bool // load satisfied from the store queue
	predTaken bool
	mispred   bool
}

func (u *uop) op() isa.Op { return u.opc }

type physReg struct {
	readyCycle int64
	written    bool // written during this run (not an initial value)
	aceValue   bool
	writeTime  int64
	lastRead   int64
}

// RunConfig bounds one simulation.
type RunConfig struct {
	// MaxInstructions is the total committed-instruction budget,
	// including warmup. Zero means run the program to completion.
	MaxInstructions int64
	// WarmupInstructions are committed before measurement starts.
	WarmupInstructions int64
}

// Fingerprint returns a canonical description of the run budget for
// internal/simcache keys. Both fields can change the simulated window,
// so both participate. The text keeps the two zero cycle-limit fields
// the struct once carried, so keys written before their removal stay
// valid.
func (rc RunConfig) Fingerprint() string {
	return fmt.Sprintf("pipe.RunConfig{MaxInstructions:%d WarmupInstructions:%d MaxCycles:0 DeadlockCycles:0}",
		rc.MaxInstructions, rc.WarmupInstructions)
}

// Pipeline simulates one program on one configuration. Create with New
// and call Run; Reset re-arms the same pipeline for another program on
// the same configuration without reallocating (see Pool).
type Pipeline struct {
	cfg    uarch.Config
	core   uarch.CoreConfig
	mem    *cache.Hierarchy
	bp     *bpred.Predictor
	stream *prog.Stream
	p      *prog.Program

	now int64

	rob     []uop
	ckpt    [][]int16 // rename-map checkpoint per ROB slot (branches only)
	head    int64     // oldest in-flight seq
	tail    int64     // next seq to allocate
	robCap  int64     // architectural capacity (cfg.Core.ROBEntries)
	robMask int64     // ring mask; ring size is the next power of two ≥ robCap

	archMap  []int16
	freeList []int16
	regs     []physReg

	compW   eventWheel    // completion events, keyed by doneCycle
	readyB  readyBits     // operand-ready uops, one bit per ROB slot
	waiters [][]waiterRef // per-physical-register consumers awaiting completion broadcast
	// blockedOn parks disambiguation-blocked loads on the ROB slot of the
	// store blocking them; the store's completion re-readies them.
	blockedOn [][]readyRef

	// dwStores indexes the in-flight correct-path stores by doubleword
	// address (age-ordered seqs), replacing loadMemCheck's ROB back-scan
	// with a couple of open-addressing probes (dwindex.go).
	dwStores dwIndex

	iqUsed, lqUsed, sqUsed int

	fetchStallUntil int64
	wrongPathMode   bool
	wpIdx           int
	pending         fetchItem
	havePending     bool
	streamDone      bool

	acct accounting

	// lastCommit is the cycle of the most recent commit, feeding the
	// deadlock detector. It is part of checkpoints so a restored run
	// resumes with the same deadlock headroom.
	lastCommit int64

	// Fault-injection replay state (inject.go): inj is non-nil only
	// inside fault replays; digestOn enables the commit digest (RunFault
	// full mode and the golden run). ckptRec, non-nil only inside a
	// SimulateGoldenRecorded call with capture on, captures checkpoints
	// at the top of the cycle loop (snapshot.go). Normal runs pay one
	// predictable branch per cycle and per commit.
	inj      *injState
	digestOn bool
	digest   uint64
	ckptRec  *ckptRecorder
	// liveRec, non-nil only inside SimulateGoldenRecorded, observes
	// correct-path destination writes and slot releases to map
	// statically dead definitions onto physical-register occupancy
	// intervals (liverec.go).
	liveRec *liveRecorder
}

type fetchItem struct {
	dyn       prog.Dyn
	wrongPath bool
}

// New builds a pipeline for the given configuration and program. The
// configuration and program must validate.
func New(cfg uarch.Config, p *prog.Program) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mem, err := cache.NewHierarchy(cfg.Mem)
	if err != nil {
		return nil, err
	}
	pl := &Pipeline{
		cfg:    cfg,
		core:   cfg.Core,
		mem:    mem,
		bp:     bpred.New(cfg.Core.Bpred),
		stream: prog.NewStream(p),
		p:      p,
		robCap: int64(cfg.Core.ROBEntries),
	}
	ring := int64(1)
	for ring < pl.robCap {
		ring <<= 1
	}
	pl.robMask = ring - 1
	pl.rob = make([]uop, ring)
	pl.ckpt = make([][]int16, ring)
	ckptBacking := make([]int16, int(ring)*isa.NumArchRegs)
	for i := range pl.ckpt {
		pl.ckpt[i] = ckptBacking[i*isa.NumArchRegs : (i+1)*isa.NumArchRegs]
	}
	pl.blockedOn = make([][]readyRef, ring)
	pl.readyB.init(ring)
	pl.archMap = make([]int16, isa.NumArchRegs)
	pl.regs = make([]physReg, cfg.Core.PhysRegs)
	pl.freeList = make([]int16, 0, cfg.Core.PhysRegs)
	pl.waiters = make([][]waiterRef, cfg.Core.PhysRegs)
	pl.dwStores.initDW(cfg.Core.SQEntries)
	// Event horizon: no completion or wakeup is ever scheduled further
	// ahead than the fully serialised memory round trip plus the longest
	// functional-unit latency; double it for margin (the wheel can still
	// grow if a pathological configuration exceeds this).
	horizon := int64(cfg.Mem.MemLatency + cfg.Mem.DTLB.WalkLatency +
		cfg.Mem.DL1.HitLatency + cfg.Mem.L2.HitLatency +
		cfg.Core.MulLatency + cfg.Core.ALULatency + cfg.Core.MispredictPenalty + 64)
	pl.compW.initWheel(2 * horizon)
	pl.resetArchState()
	return pl, nil
}

// pushStore records a dispatched correct-path store in the doubleword
// index; its seq is strictly larger than every existing entry.
func (pl *Pipeline) pushStore(dw uint64, seq int64) { pl.dwStores.push(dw, seq) }

// dropStore removes a store that left flight: at commit it is the oldest
// entry of its list, at flush the youngest.
func (pl *Pipeline) dropStore(dw uint64, youngest bool) { pl.dwStores.drop(dw, youngest) }

// resetArchState (re)initialises the rename map, free list and register
// file to their power-on state.
func (pl *Pipeline) resetArchState() {
	// Architected registers r0..r30 start mapped to physical 0..30 and
	// ready; r31 is the hardwired zero.
	for r := 0; r < isa.NumArchRegs-1; r++ {
		pl.archMap[r] = int16(r)
	}
	pl.archMap[isa.RZero] = noReg
	for i := range pl.regs {
		pl.regs[i] = physReg{}
	}
	pl.freeList = pl.freeList[:0]
	for pr := isa.NumArchRegs - 1; pr < pl.core.PhysRegs; pr++ {
		pl.freeList = append(pl.freeList, int16(pr))
	}
}

// Reset re-arms the pipeline to simulate program p from cycle zero on
// the same configuration, reusing every allocation (ROB ring, checkpoint
// matrix, register file, event heaps, cache hierarchy). A Reset pipeline
// is bit-identical to a freshly built one; the golden-equivalence test
// and TestPoolMatchesFresh lock that in.
func (pl *Pipeline) Reset(p *prog.Program) error {
	if err := p.Validate(); err != nil {
		return err
	}
	pl.p = p
	pl.stream.ResetTo(p)
	pl.now = 0
	pl.head, pl.tail = 0, 0
	pl.iqUsed, pl.lqUsed, pl.sqUsed = 0, 0, 0
	pl.fetchStallUntil = 0
	pl.wrongPathMode = false
	pl.wpIdx = 0
	pl.pending = fetchItem{}
	pl.havePending = false
	pl.streamDone = false
	pl.acct = accounting{}
	pl.compW.reset()
	pl.readyB.reset()
	for i := range pl.waiters {
		pl.waiters[i] = pl.waiters[i][:0]
	}
	for i := range pl.blockedOn {
		pl.blockedOn[i] = pl.blockedOn[i][:0]
	}
	pl.dwStores.clearDW()
	pl.lastCommit = 0
	pl.inj = nil
	pl.digestOn = false
	pl.digest = 0
	pl.ckptRec = nil
	pl.liveRec = nil
	// ROB slots and checkpoints are left dirty: dispatch fully overwrites
	// a slot (preserving only gen) before any field is read.
	pl.resetArchState()
	pl.mem.Reset()
	pl.bp.Reset()
	return nil
}

func (pl *Pipeline) at(seq int64) *uop { return &pl.rob[seq&pl.robMask] }

func (pl *Pipeline) robCount() int { return int(pl.tail - pl.head) }

// Run executes the program under the given budget and returns the AVF
// result. Call once per New or Reset.
func (pl *Pipeline) Run(rc RunConfig) (*avf.Result, error) {
	if err := pl.runLoop(rc); err != nil {
		return nil, err
	}
	if !pl.acct.measuring {
		return nil, errors.New("pipe: program ended inside warmup window")
	}
	return pl.finalize(), nil
}

// deadlockCycles aborts a run in which no instruction commits for this
// many cycles.
const deadlockCycles = 1_000_000

// runBudget holds the normalised cycle-loop limits derived from a
// RunConfig. Deriving them is deterministic, so a replay resumed from a
// checkpoint recomputes the identical budget from the same RunConfig.
type runBudget struct {
	maxInstrs int64
	maxCycles int64
}

// budget normalises rc into hard loop limits.
func (pl *Pipeline) budget(rc RunConfig) (runBudget, error) {
	b := runBudget{maxInstrs: math.MaxInt64, maxCycles: math.MaxInt64 / 2}
	if rc.MaxInstructions > 0 {
		b.maxInstrs = rc.MaxInstructions
		// Generous bound: every instruction fully serialised through
		// main memory would still finish within this.
		b.maxCycles = rc.MaxInstructions*int64(pl.cfg.Mem.MemLatency+pl.cfg.Mem.DTLB.WalkLatency+32) + 10_000
	}
	if rc.WarmupInstructions >= b.maxInstrs {
		return b, fmt.Errorf("pipe: warmup %d >= budget %d", rc.WarmupInstructions, b.maxInstrs)
	}
	return b, nil
}

// runLoop executes the program under the budget from cycle zero, leaving
// the pipeline state at end-of-run for the caller to finalize.
func (pl *Pipeline) runLoop(rc RunConfig) error {
	b, err := pl.budget(rc)
	if err != nil {
		return err
	}
	pl.acct.warmupLeft = rc.WarmupInstructions
	if rc.WarmupInstructions == 0 {
		pl.startMeasurement()
	}
	pl.lastCommit = 0
	return pl.runCycles(b)
}

// resumeLoop continues a run restored from a checkpoint under the same
// RunConfig the golden run used: warmup state, commit counts and the
// deadlock watermark all live in the restored state, so only the budget
// is recomputed.
func (pl *Pipeline) resumeLoop(rc RunConfig) error {
	b, err := pl.budget(rc)
	if err != nil {
		return err
	}
	return pl.runCycles(b)
}

// runCycles is the shared cycle loop of golden runs, fault replays and
// checkpoint-resumed replays. A fault-injection replay (pl.inj non-nil)
// applies each of its faults at that fault's injection cycle, polls the
// fate watches, and returns as soon as every outcome is resolved unless
// running in full mode. A checkpointing golden run (pl.ckptRec non-nil)
// snapshots the full simulator state at the top of the loop whenever the
// recorder's next capture cycle is reached.
//
// The loop yields its P every 4096 iterations: a campaign's one replay
// runs for tens of milliseconds as a single sched.Each item, and
// without the yield expired timers and network handlers (the daemon's
// /v1/healthz) wait for the next asynchronous preemption, about 10 ms.
func (pl *Pipeline) runCycles(b runBudget) error {
	for iter := uint32(1); pl.acct.committed+pl.acct.warmupDone < b.maxInstrs; iter++ {
		if iter%4096 == 0 {
			runtime.Gosched()
		}
		if pl.streamDone && pl.robCount() == 0 && !pl.havePending {
			break
		}
		if pl.now >= b.maxCycles {
			return fmt.Errorf("pipe: cycle budget %d exhausted at %d committed instructions",
				b.maxCycles, pl.acct.committed+pl.acct.warmupDone)
		}
		if rec := pl.ckptRec; rec != nil && pl.acct.measuring && pl.now >= rec.nextAt {
			rec.take(pl)
		}
		n := pl.commit()
		c := pl.complete()
		i := pl.issue()
		d := pl.dispatch()
		if n > 0 {
			pl.lastCommit = pl.now
		}
		if pl.now-pl.lastCommit > deadlockCycles {
			return fmt.Errorf("pipe: deadlock: no commit for %d cycles at cycle %d (rob=%d iq=%d lq=%d sq=%d)",
				deadlockCycles, pl.now, pl.robCount(), pl.iqUsed, pl.lqUsed, pl.sqUsed)
		}
		step := int64(1)
		if n+c+i+d == 0 {
			// Nothing changed this cycle: microarchitectural state is
			// frozen until the next completion or the end of a fetch
			// stall (typically the shadow of an L2 miss). Fast-forward.
			if next := pl.nextEvent(); next > pl.now+1 {
				step = next - pl.now
			}
		}
		if pl.acct.measuring {
			pl.acct.tickN(pl, step)
		}
		if inj := pl.inj; inj != nil {
			// End-of-cycle injection point: each fault lands after the
			// stages of its cycle have run, matching the half-open
			// [start, end) convention of every ACE interval. A frozen
			// multi-cycle step contains no state change, so applying at
			// any cycle inside it is equivalent. Faults are pure
			// observers, so co-replayed trials resolve exactly as they
			// would alone.
			for inj.next < len(inj.trials) {
				t := &inj.trials[inj.next]
				if t.fault.Cycle >= pl.now+step {
					break
				}
				if !t.applied {
					pl.applyFault(inj.next)
				}
				inj.next++
			}
			if len(inj.fates) > 0 {
				pl.injPoll()
			}
			if inj.open == 0 && !inj.full {
				return nil
			}
		}
		pl.now += step
	}
	return nil
}

// nextEvent returns the earliest future cycle at which pipeline state can
// change: an in-flight completion or the end of a fetch stall. Returns a
// far-future sentinel when nothing is pending (the deadlock detector
// handles that case). Operand wakeups never precede the completion that
// produces them, so scanning the completion wheel is sufficient.
func (pl *Pipeline) nextEvent() int64 {
	next := pl.earliestLiveCompletion()
	if pl.fetchStallUntil > pl.now && pl.fetchStallUntil < next {
		next = pl.fetchStallUntil
	}
	if next <= pl.now {
		return pl.now + 1
	}
	return next
}
