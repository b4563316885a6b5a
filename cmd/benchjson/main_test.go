package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func report(results ...Result) Report { return Report{Results: results} }

func res(name string, ns float64) Result { return Result{Name: name, Iterations: 1, NsPerOp: ns} }

// writeBaseline stores base as a snapshot file and returns its path.
func writeBaseline(t *testing.T, base Report) string {
	t.Helper()
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_latest.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompare pins the -check gate: a baseline benchmark the run did not
// produce fails, as does a regression past the tolerance; a benchmark
// new to the run passes, and a baseline under -min-ns is never timed.
func TestCompare(t *testing.T) {
	const tol, minNs = 0.20, 1e6
	base := writeBaseline(t, report(res("BenchmarkSlow", 1e8), res("BenchmarkFast", 1e3)))
	for _, tc := range []struct {
		name string
		run  Report
		want bool
	}{
		{"within tolerance", report(res("BenchmarkSlow-8", 1.1e8), res("BenchmarkFast-8", 1e3)), true},
		{"missing baseline", report(res("BenchmarkSlow-8", 1e8)), false},
		{"regression", report(res("BenchmarkSlow-8", 1.5e8), res("BenchmarkFast-8", 1e3)), false},
		{"new benchmark", report(res("BenchmarkSlow-8", 1e8), res("BenchmarkFast-8", 1e3), res("BenchmarkNew-8", 5e9)), true},
		{"sub-min-ns baseline skipped", report(res("BenchmarkSlow-8", 1e8), res("BenchmarkFast-8", 1e5)), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := compare(tc.run, base, tol, minNs); got != tc.want {
				t.Errorf("compare = %v, want %v", got, tc.want)
			}
		})
	}
}
