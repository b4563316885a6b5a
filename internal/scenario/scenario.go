// Package scenario is the declarative vocabulary of the orchestration
// tier. A Definition describes one runnable scenario — a paper figure,
// a table, or a parametric study — as the set of Jobs it needs plus a
// Render step that assembles the report once those jobs are complete.
// Definitions live in a Registry; internal/sched executes the combined
// job DAG of any number of scenarios concurrently, deduplicating jobs
// that scenarios share by Key.
//
// The contract between the layers (DESIGN.md §8) is declared-jobs
// purity: Render must need no work beyond the declared Jobs — after the
// jobs have run, rendering is pure assembly and triggers no further
// simulation. Two jobs with the same Key must describe identical work,
// so executing either one satisfies both declarations.
package scenario

import (
	"context"
	"fmt"
	"strings"
	"sync"
)

// Job is one unit of schedulable work a scenario declares: typically a
// workload-suite simulation or a stressmark search. Key is the
// content-derived dedup identity (scenarios sharing a Key share the
// work); Deps lists Keys that must complete first; Run performs the
// work and must honour ctx cancellation. A nil Run is a no-op
// (pure grouping node).
type Job struct {
	Key  string
	Deps []string
	Run  func(ctx context.Context) error
}

// Definition declares one scenario: its identity, the jobs it needs and
// the render step producing its report.
type Definition struct {
	// Name is the registry identity ("fig3", "table1", ...).
	Name string
	// Title is an optional human-readable description.
	Title string
	// Jobs returns the declared work. It must be cheap and side-effect
	// free — declaring is not running. Nil means the scenario needs no
	// jobs (static tables).
	Jobs func() []Job
	// Render assembles the report from the completed jobs' results.
	Render func(ctx context.Context) (string, error)
}

// Registry is an ordered collection of scenario definitions. The zero
// value is not usable; construct with NewRegistry. Safe for concurrent
// lookups; registration is expected at construction time but is also
// concurrency-safe.
type Registry struct {
	mu    sync.RWMutex
	order []string
	defs  map[string]Definition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{defs: map[string]Definition{}}
}

// Register adds d to the registry, preserving registration order.
func (r *Registry) Register(d Definition) error {
	if d.Name == "" {
		return fmt.Errorf("scenario: definition has no name")
	}
	if d.Render == nil {
		return fmt.Errorf("scenario: %q has no render step", d.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.defs[d.Name]; ok {
		return fmt.Errorf("scenario: %q registered twice", d.Name)
	}
	r.defs[d.Name] = d
	r.order = append(r.order, d.Name)
	return nil
}

// MustRegister is Register for static tables; it panics on error.
func (r *Registry) MustRegister(d Definition) {
	if err := r.Register(d); err != nil {
		panic(err)
	}
}

// Names returns the registered scenario names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Lookup returns the definition registered under name.
func (r *Registry) Lookup(name string) (Definition, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.defs[name]
	if !ok {
		return Definition{}, fmt.Errorf("scenario: unknown scenario %q (have %s)",
			name, strings.Join(r.order, ", "))
	}
	return d, nil
}
