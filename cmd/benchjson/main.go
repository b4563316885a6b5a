// Command benchjson converts `go test -bench` output on stdin into
// machine-readable JSON on stdout, so benchmark snapshots can be
// committed (BENCH_*.json) and compared across PRs without parsing the
// text format again. Used by `make bench` and, with -check, by the CI
// bench-smoke regression gate.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem | benchjson > BENCH_latest.json
//	go test -run '^$' -bench . -benchtime 1x ./... | benchjson -check BENCH_latest.json
//
// Each benchmark line becomes one record; custom b.ReportMetric units
// land in "metrics". Context lines (goos/goarch/pkg/cpu) are captured
// into the header; with multiple packages on stdin each result is tagged
// with its package. With -check, results are compared by name against
// the baseline snapshot and the exit status is non-zero if any benchmark
// regressed by more than -tolerance (ns/op), or if any baseline
// benchmark is missing from the run (a deleted or renamed benchmark must
// leave the snapshot too, never drop out of the gate silently).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Pkg         string             `json:"pkg,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the full converted run.
type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	var (
		check     = flag.String("check", "", "baseline BENCH_*.json: fail if any benchmark regresses past the tolerance or is missing from the run")
		tolerance = flag.Float64("tolerance", 0.20, "allowed fractional ns/op regression vs the baseline (with -check)")
		minNs     = flag.Float64("min-ns", 1e6, "skip baselines faster than this in -check (single-iteration sub-ms timings are noise)")
	)
	flag.Parse()

	rep := Report{Results: []Result{}}
	curPkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			curPkg = strings.TrimPrefix(line, "pkg: ")
			if rep.Pkg == "" {
				rep.Pkg = curPkg
			}
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				if curPkg != rep.Pkg {
					r.Pkg = curPkg
				}
				rep.Results = append(rep.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "\t")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *check != "" && !compare(rep, *check, *tolerance, *minNs) {
		os.Exit(1)
	}
}

// compare reports whether the run produced every baseline benchmark
// and every benchmark present in both is within the allowed ns/op
// regression.
func compare(rep Report, baselinePath string, tolerance, minNs float64) bool {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading baseline: %v\n", err)
		return false
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parsing baseline: %v\n", err)
		return false
	}
	ok := true
	ran := make(map[string]bool, len(rep.Results))
	for _, r := range rep.Results {
		ran[benchKey(r)] = true
	}
	baseBy := make(map[string]float64, len(base.Results))
	for _, r := range base.Results {
		baseBy[benchKey(r)] = r.NsPerOp
		if !ran[benchKey(r)] {
			fmt.Fprintf(os.Stderr, "benchjson: MISSING %s: in the baseline but not produced by this run (drop it from %s if it was removed)\n",
				r.Name, baselinePath)
			ok = false
		}
	}
	checked := 0
	for _, r := range rep.Results {
		want, have := baseBy[benchKey(r)]
		if !have || want < minNs {
			continue // new benchmark, or too fast to time reliably at 1x
		}
		checked++
		if r.NsPerOp > want*(1+tolerance) {
			fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s: %.0f ns/op vs baseline %.0f (+%.1f%% > %.0f%% allowed)\n",
				r.Name, r.NsPerOp, want, 100*(r.NsPerOp/want-1), 100*tolerance)
			ok = false
		}
	}
	fmt.Fprintf(os.Stderr, "benchjson: checked %d benchmarks against %s (tolerance %.0f%%)\n",
		checked, baselinePath, 100*tolerance)
	if checked == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmarks matched the baseline — the gate covered nothing\n")
		return false
	}
	return ok
}

// benchKey identifies a benchmark across runs: its package plus its
// name without the GOMAXPROCS suffix.
func benchKey(r Result) string { return r.Pkg + "|" + stripProcs(r.Name) }

// stripProcs removes the "-N" GOMAXPROCS suffix go test appends on
// multi-core machines, so -check matches snapshots across core counts.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	if i+1 == len(name) {
		return name
	}
	return name[:i]
}

// parseLine handles `BenchmarkName-8  N  12.3 ns/op  4 B/op  2 allocs/op
// 5.0 custom-unit ...`: a name, an iteration count, then value/unit
// pairs.
func parseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: f[0], Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			b := v
			r.BytesPerOp = &b
		case "allocs/op":
			a := v
			r.AllocsPerOp = &a
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[f[i+1]] = v
		}
	}
	return r, true
}
