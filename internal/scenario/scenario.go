// Package scenario is the declarative vocabulary of the orchestration
// tier. A Definition describes one runnable scenario — a paper figure,
// a table, or a parametric study — by its Render step, which produces
// the scenario's report. Definitions live in a Registry; the
// experiments Context renders any number of them concurrently, one
// sched.Each item per requested scenario, and each render pulls the
// workload suites, stressmark searches and injection studies it needs
// through the Context's memoised flights — so scenarios sharing a study
// pay for it once (DESIGN.md §8).
package scenario

import (
	"context"
	"fmt"
	"strings"
	"sync"
)

// Definition declares one scenario: its identity and the render step
// producing its report.
type Definition struct {
	// Name is the registry identity ("fig3", "table1", ...).
	Name string
	// Title is an optional human-readable description.
	Title string
	// Render computes (through the shared memos) and assembles the
	// report; it must honour ctx cancellation.
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
