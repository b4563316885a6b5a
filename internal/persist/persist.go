// Package persist serialises the artefacts a user wants to keep from a
// stressmark search — the knob settings (a complete, reproducible
// description of a candidate: the generator is deterministic in them)
// with their final evaluation — as JSON files for the command-line tools.
package persist

import (
	"encoding/json"
	"fmt"
	"os"

	"avfstress/internal/avf"
	"avfstress/internal/codegen"
)

// SavedStressmark is the on-disk record of a search outcome.
type SavedStressmark struct {
	// Config names the target configuration (informational).
	Config string `json:"config"`
	// Rates names the fault-rate set used for the fitness.
	Rates string `json:"rates"`
	// Knobs fully determine the generated program.
	Knobs codegen.Knobs `json:"knobs"`
	// Fitness is the final evaluation's fitness value.
	Fitness float64 `json:"fitness,omitempty"`
	// Result optionally embeds the final evaluation.
	Result *avf.Result `json:"result,omitempty"`
}

// SaveStressmark writes the record to path (pretty-printed JSON).
func SaveStressmark(path string, s SavedStressmark) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("persist: encode: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// LoadStressmark reads a record written by SaveStressmark.
func LoadStressmark(path string) (SavedStressmark, error) {
	var s SavedStressmark
	data, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("persist: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("persist: decode %s: %w", path, err)
	}
	return s, nil
}
