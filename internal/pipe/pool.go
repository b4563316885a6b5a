package pipe

import (
	"sync"

	"avfstress/internal/avf"
	"avfstress/internal/prog"
	"avfstress/internal/uarch"
)

// Pool reuses Pipelines — ROB ring, checkpoint matrix, register file,
// event heaps and the whole cache hierarchy — across many simulations of
// one configuration. GA fitness evaluation simulates thousands of short
// candidate programs on a fixed microarchitecture; building a fresh
// Pipeline per candidate allocates all of that every time, and the pool
// removes it from the hot path. Safe for concurrent use; each Simulate
// call holds a pipeline exclusively.
type Pool struct {
	cfg  uarch.Config
	pool sync.Pool
}

// NewPool validates the configuration once and returns an empty pool.
func NewPool(cfg uarch.Config) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Pool{cfg: cfg}, nil
}

// get returns a pooled pipeline reset to program p (or a fresh one when
// the pool is empty). The caller runs it and Puts it back.
func (pp *Pool) get(p *prog.Program) (*Pipeline, error) {
	if v := pp.pool.Get(); v != nil {
		pl := v.(*Pipeline)
		if err := pl.Reset(p); err != nil {
			pp.pool.Put(pl)
			return nil, err
		}
		return pl, nil
	}
	return New(pp.cfg, p)
}

// Simulate runs program p under rc on a pooled pipeline, returning the
// pipeline for reuse afterwards. Results are bit-identical to
// Simulate(cfg, p, rc) on a fresh pipeline.
func (pp *Pool) Simulate(p *prog.Program, rc RunConfig) (*avf.Result, error) {
	pl, err := pp.get(p)
	if err != nil {
		return nil, err
	}
	res, err := pl.Run(rc)
	pp.pool.Put(pl)
	return res, err
}
