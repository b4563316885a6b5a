// Package bpred implements the Alpha 21264 hybrid (tournament) branch
// predictor used by the baseline configuration of the paper: a 4K-entry
// global predictor indexed by a 12-bit global history, a two-level local
// predictor (1K 10-bit local histories selecting 1K 3-bit counters), and
// a 4K-entry choice predictor that arbitrates between them.
package bpred

import "errors"

// errGeometry reports a Restore against a predictor whose table sizes do
// not match the snapshot's.
var errGeometry = errors.New("bpred: snapshot geometry mismatch")

// Config sizes the predictor tables. The zero value is not useful;
// call DefaultConfig for the paper's baseline ("Hybrid, 4K global,
// 2 level 1K local, 4K choice").
type Config struct {
	GlobalEntries  int // counters in the global table (power of two)
	LocalHistories int // entries in the level-1 local history table
	LocalEntries   int // counters in the level-2 local table
	ChoiceEntries  int // counters in the choice table
	LocalHistBits  int // bits of local history kept per branch
	GlobalHistBits int // bits of global history
}

// DefaultConfig returns the 21264 baseline predictor geometry.
func DefaultConfig() Config {
	return Config{
		GlobalEntries:  4096,
		LocalHistories: 1024,
		LocalEntries:   1024,
		ChoiceEntries:  4096,
		LocalHistBits:  10,
		GlobalHistBits: 12,
	}
}

// Predictor is a tournament branch predictor. It is not safe for
// concurrent use; each simulated core owns one.
type Predictor struct {
	cfg Config

	global []uint8 // 2-bit counters
	choice []uint8 // 2-bit counters; taken means "use global"
	localH []uint16
	localC []uint8 // 3-bit counters

	ghist uint64

	// Stats
	Lookups     uint64
	Mispredicts uint64
}

// New constructs a predictor, validating and normalising the geometry
// (table sizes are rounded up to powers of two).
func New(cfg Config) *Predictor {
	norm := func(n, def int) int {
		if n <= 0 {
			n = def
		}
		p := 1
		for p < n {
			p <<= 1
		}
		return p
	}
	d := DefaultConfig()
	cfg.GlobalEntries = norm(cfg.GlobalEntries, d.GlobalEntries)
	cfg.LocalHistories = norm(cfg.LocalHistories, d.LocalHistories)
	cfg.LocalEntries = norm(cfg.LocalEntries, d.LocalEntries)
	cfg.ChoiceEntries = norm(cfg.ChoiceEntries, d.ChoiceEntries)
	if cfg.LocalHistBits <= 0 {
		cfg.LocalHistBits = d.LocalHistBits
	}
	if cfg.GlobalHistBits <= 0 {
		cfg.GlobalHistBits = d.GlobalHistBits
	}
	p := &Predictor{
		cfg:    cfg,
		global: make([]uint8, cfg.GlobalEntries),
		choice: make([]uint8, cfg.ChoiceEntries),
		localH: make([]uint16, cfg.LocalHistories),
		localC: make([]uint8, cfg.LocalEntries),
	}
	// Weakly taken everywhere: loops predict well immediately, matching
	// the stressmark's assumption of no cold-start mispredictions on the
	// backedge after warmup.
	for i := range p.global {
		p.global[i] = 2
	}
	for i := range p.choice {
		p.choice[i] = 2
	}
	for i := range p.localC {
		p.localC[i] = 4
	}
	return p
}

// Predict returns the predicted direction for the branch at pc.
// It performs no state update; pair with Update.
func (p *Predictor) Predict(pc uint64) bool {
	gi := p.globalIndex()
	li := p.localIndex(pc)
	ci := p.choiceIndex()
	useGlobal := p.choice[ci] >= 2
	if useGlobal {
		return p.global[gi] >= 2
	}
	return p.localC[li] >= 4
}

// Update trains the predictor with the actual outcome of the branch at
// pc and returns whether the pre-update prediction was correct. In the
// pipeline model Update is called at fetch (immediate-update idealism, a
// standard fast-model simplification; redirect latency is modelled in the
// pipeline, not here).
func (p *Predictor) Update(pc uint64, taken bool) (correct bool) {
	gi := p.globalIndex()
	li := p.localIndex(pc)
	ci := p.choiceIndex()

	gPred := p.global[gi] >= 2
	lPred := p.localC[li] >= 4
	useGlobal := p.choice[ci] >= 2
	pred := lPred
	if useGlobal {
		pred = gPred
	}
	correct = pred == taken
	p.Lookups++
	if !correct {
		p.Mispredicts++
	}

	// Choice trains toward the component that was right, only when they
	// disagree.
	if gPred != lPred {
		if gPred == taken {
			p.choice[ci] = sat2Inc(p.choice[ci])
		} else {
			p.choice[ci] = sat2Dec(p.choice[ci])
		}
	}
	if taken {
		p.global[gi] = sat2Inc(p.global[gi])
		p.localC[li] = sat3Inc(p.localC[li])
	} else {
		p.global[gi] = sat2Dec(p.global[gi])
		p.localC[li] = sat3Dec(p.localC[li])
	}

	// Histories.
	hIdx := (pc >> 2) & uint64(p.cfg.LocalHistories-1)
	h := p.localH[hIdx] << 1
	if taken {
		h |= 1
	}
	p.localH[hIdx] = h & uint16((1<<p.cfg.LocalHistBits)-1)
	p.ghist <<= 1
	if taken {
		p.ghist |= 1
	}
	p.ghist &= (1 << p.cfg.GlobalHistBits) - 1
	return correct
}

// MispredictRate returns the fraction of mispredicted lookups.
func (p *Predictor) MispredictRate() float64 {
	if p.Lookups == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Lookups)
}

// ResetStats clears the lookup/misprediction counters, keeping the
// trained state (used when a warmup window ends).
func (p *Predictor) ResetStats() { p.Lookups, p.Mispredicts = 0, 0 }

// Reset discards all trained state and statistics, returning the
// predictor to the weakly-taken power-on state New produces. Used when a
// pooled pipeline is re-armed for a new program.
func (p *Predictor) Reset() {
	for i := range p.global {
		p.global[i] = 2
	}
	for i := range p.choice {
		p.choice[i] = 2
	}
	for i := range p.localC {
		p.localC[i] = 4
	}
	for i := range p.localH {
		p.localH[i] = 0
	}
	p.ghist = 0
	p.ResetStats()
}

// State is a deep copy of a predictor's trained tables, history and
// statistics, captured by Snapshot and reinstated by Restore. It exists
// so pipe checkpoints can include the predictor bit-exactly.
type State struct {
	Global []uint8
	Choice []uint8
	LocalH []uint16
	LocalC []uint8

	GHist       uint64
	Lookups     uint64
	Mispredicts uint64
}

// Snapshot copies the predictor's full state into dst (reusing dst's
// slices when they have the right length) and returns dst. A nil dst
// allocates a fresh State.
func (p *Predictor) Snapshot(dst *State) *State {
	if dst == nil {
		dst = &State{}
	}
	dst.Global = append(dst.Global[:0], p.global...)
	dst.Choice = append(dst.Choice[:0], p.choice...)
	dst.LocalH = append(dst.LocalH[:0], p.localH...)
	dst.LocalC = append(dst.LocalC[:0], p.localC...)
	dst.GHist = p.ghist
	dst.Lookups = p.Lookups
	dst.Mispredicts = p.Mispredicts
	return dst
}

// Restore overwrites the predictor's state with a snapshot taken from a
// predictor of identical geometry.
func (p *Predictor) Restore(st *State) error {
	if len(st.Global) != len(p.global) || len(st.Choice) != len(p.choice) ||
		len(st.LocalH) != len(p.localH) || len(st.LocalC) != len(p.localC) {
		return errGeometry
	}
	copy(p.global, st.Global)
	copy(p.choice, st.Choice)
	copy(p.localH, st.LocalH)
	copy(p.localC, st.LocalC)
	p.ghist = st.GHist
	p.Lookups = st.Lookups
	p.Mispredicts = st.Mispredicts
	return nil
}

func (p *Predictor) globalIndex() uint64 {
	return p.ghist & uint64(p.cfg.GlobalEntries-1)
}

func (p *Predictor) localIndex(pc uint64) uint64 {
	hIdx := (pc >> 2) & uint64(p.cfg.LocalHistories-1)
	return uint64(p.localH[hIdx]) & uint64(p.cfg.LocalEntries-1)
}

func (p *Predictor) choiceIndex() uint64 {
	return p.ghist & uint64(p.cfg.ChoiceEntries-1)
}

func sat2Inc(c uint8) uint8 {
	if c < 3 {
		return c + 1
	}
	return c
}

func sat2Dec(c uint8) uint8 {
	if c > 0 {
		return c - 1
	}
	return c
}

func sat3Inc(c uint8) uint8 {
	if c < 7 {
		return c + 1
	}
	return c
}

func sat3Dec(c uint8) uint8 {
	if c > 0 {
		return c - 1
	}
	return c
}
