// Command perfbench is the repository's end-to-end benchmark. It drives
// the system only through its public entry points — the experiment
// contexts avfbench and avfinject use, and the avfstressd HTTP API — on
// two workloads:
//
//	suite     the full paper suite with GA searches (avfbench defaults)
//	campaign  one reference-mode fault-injection + root-cause study
//
// The traced campaign run also serves the campaign through avfstressd
// with a disk cache and journal, cold then warm.
//
// Usage (from the repository root, after building with run.sh):
//
//	perfbench --workload suite --seed 1 --seconds 45 --trace 0
//
// Every run checks the outputs against exact contracts and prints, as
// its last stdout line, one JSON object with the fields correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 runs the traced decomposition and reports the
// per-layer metrics instead. README.md describes each metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"avfstress/internal/experiments"
	"avfstress/internal/scenario"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every --trace 0 run reports,
// with their units.
var endToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"job_cold_s", "s"},
	{"job_warm_s", "s"},
	{"trials_per_s", "1/s"},
	{"healthz_p50_ms", "ms"},
	{"healthz_p95_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// run carries one benchmark invocation's settings and tallies.
type run struct {
	Workload string
	Seed     int64
	Seconds  time.Duration
	Trace    bool
	Root     string // checkout root
	Out      string // build and scratch directory
	Self     string // this binary, re-executed as the worker
	Daemon   string // avfstressd binary

	attempted, failed int
}

// tally counts one operation.
func (r *run) tally(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// tallyChecks counts checks and logs the failures.
func (r *run) tallyChecks(iter int, cs []check) {
	for _, c := range cs {
		r.tally(c.OK)
		if !c.OK {
			fmt.Fprintf(os.Stderr, "perfbench: iteration %d: check %s failed: %s\n", iter, c.Name, c.Detail)
		}
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(workerMain())
	}
	var (
		workload = flag.String("workload", "", "suite or campaign")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 45, "measurement time per run, in seconds")
		trace    = flag.Int("trace", 0, "1: run the traced decomposition and report per-layer metrics")
		out      = flag.String("out", ".bench_build/perfbench", "build and scratch directory, relative to the checkout root")
	)
	flag.Parse()
	root, err := os.Getwd()
	if err != nil {
		die(err)
	}
	self, err := os.Executable()
	if err != nil {
		die(err)
	}
	r := &run{
		Workload: *workload, Seed: *seed, Seconds: time.Duration(*seconds) * time.Second,
		Trace: *trace == 1, Root: root, Out: filepath.Join(root, *out), Self: self,
		Daemon: filepath.Join(root, *out, "avfstressd"),
	}
	if r.Workload != "suite" && r.Workload != "campaign" {
		die(fmt.Errorf("unknown workload %q (have suite, campaign)", r.Workload))
	}
	metrics, err := r.inProcess()
	if err != nil {
		die(err)
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			die(fmt.Errorf("metric %s is %v", name, m.Value))
		}
	}
	if r.attempted == 0 {
		die(errors.New("no operation was attempted"))
	}
	printSummary(metrics)
	b, err := json.Marshal(result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics})
	if err != nil {
		die(err)
	}
	fmt.Println(string(b))
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printSummary writes the metrics, one per line with their units, to
// stderr (stdout carries only the result line).
func printSummary(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// specSeed maps the benchmark seed onto a valid experiment seed (the
// experiments treat 0 as "default 1").
func (r *run) specSeed() int64 {
	if r.Seed > 0 {
		return r.Seed
	}
	return 1<<20 - r.Seed
}

// workDir returns a fresh scratch directory for this run.
func (r *run) workDir() (string, error) {
	dir := filepath.Join(r.Out, "work", fmt.Sprintf("%s-seed%d", r.Workload, r.Seed))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// Workload shapes. The suite is avfbench's default invocation; the
// campaign study is four 5000-trial campaigns (three panel workloads
// plus the stressmark) in reference mode, so no GA runs.
const (
	campaignTrials = 5000
	// checkInterval is the fixed checkpoint interval the campaign
	// report must match the automatic interval at.
	checkInterval = 1024
	// probePeriod spaces the in-process /v1/healthz probes: a probe
	// costs tens of microseconds, and at 200 per second even the
	// campaign's one-second cold phases yield enough samples for a
	// repeatable median.
	probePeriod = 5 * time.Millisecond
	// healthzPeriod spaces the daemon's /v1/healthz probes, each a full
	// HTTP exchange with the loaded daemon.
	healthzPeriod = 20 * time.Millisecond
	// warmRepeats is the number of warm renderings per iteration and
	// setupSamples the number of extra set-up samples before each.
	warmRepeats  = 5
	setupSamples = 10
	// campaignSets is the number of seeds a campaign run cycles through,
	// each for two iterations in a row so that every run compares the
	// digests and ledgers of at least one pair.
	campaignSets = 2
	// workerTimeout and jobTimeout bound a worker process and one HTTP
	// call of the job client.
	workerTimeout = 120 * time.Second
	jobTimeout    = 120 * time.Second
)

// inProcess runs the suite or campaign workload: one worker process per
// iteration until the measurement time is spent.
func (r *run) inProcess() (map[string]metric, error) {
	dir, err := r.workDir()
	if err != nil {
		return nil, err
	}
	req := workerReq{WarmRepeats: warmRepeats, ProbePeriod: probePeriod, WorkDir: dir}
	// specs returns the inputs of input set j of the run.
	specs, sets := func(int) []scenario.Spec { return []scenario.Spec{suiteSpec(r.Seed)} }, 1
	if r.Workload == "suite" {
		// The default suite's one study renders only the root-cause
		// view: four campaigns, no injection summary table.
		req.WantRows, req.WantRC = []int{0}, []int{0}
	} else {
		// The campaign's work depends on the workload proxies its seed
		// builds, so a run cycles through campaignSets seeds derived
		// from --seed and its medians span them.
		specs = func(j int) []scenario.Spec {
			return []scenario.Spec{campaignSpec(r.specSeed()*campaignSets+int64(j), campaignTrials)}
		}
		sets = campaignSets
		req.CheckInterval = checkInterval
		req.WantRows, req.WantRC = []int{8}, []int{4}
	}
	req.Specs = specs(0)
	if r.Trace {
		if r.Workload == "campaign" {
			// The campaign's traced run also serves its spec through
			// the daemon: the service, journal and disk-tier layers
			// are measured on the replay path they slow.
			return r.traceDaemon(req, dir)
		}
		return r.traceInProcess(req)
	}
	var (
		setup, wall, cold, warm, tps, rss []float64
		probes                            []float64
		first                             = make([]*workerResp, sets)
	)
	deadline := time.Now().Add(r.Seconds)
	// Host-speed calibrations: before the first iteration and after
	// every one, so that they span the run.
	cal := newCalibrator()
	cals := []float64{cal.calibrate()}
	// At least two iterations, so the cross-process checks always run.
	for iter := 0; iter < 2 || time.Now().Before(deadline); iter++ {
		j := (iter / 2) % sets
		req.Specs = specs(j)
		// Set-up samples, spread over the run: workers that exit as
		// soon as they are ready.
		for k := 0; k < setupSamples; k++ {
			sreq := req
			sreq.SetupOnly = true
			_, st, _, err := r.spawnWorker(sreq)
			r.tally(err == nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: set-up sample %d: %v\n", k, err)
				continue
			}
			setup = append(setup, st)
		}
		resp, st, mb, err := r.spawnWorker(req)
		cals = append(cals, cal.calibrate())
		r.tally(err == nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: iteration %d: %v\n", iter, err)
			continue
		}
		r.tallyChecks(iter, resp.Checks)
		for i := range resp.ProbeMs {
			r.tally(i >= resp.ProbeKO)
		}
		if first[j] == nil {
			first[j] = resp
		} else {
			r.tallyChecks(iter, []check{sameText("digest_stable", strings.Join(first[j].Digests, ","), strings.Join(resp.Digests, ",")),
				ledgerCheck(first[j].Ledger, resp.Ledger)})
		}
		setup = append(setup, st)
		cold = append(cold, resp.ColdS)
		warm = append(warm, resp.WarmS)
		wall = append(wall, resp.ColdS+resp.WarmS)
		tps = append(tps, float64(resp.Trials)/resp.ColdS)
		rss = append(rss, mb)
		probes = append(probes, resp.ProbeMs...)
		fmt.Fprintf(os.Stderr, "perfbench: iteration %d: cold %.3f s, warm %.3f s\n", iter, resp.ColdS, resp.WarmS)
		logLate(iter, resp.LateMs)
	}
	if len(wall) == 0 {
		return nil, errors.New("every iteration failed")
	}
	for j, f := range first {
		if f != nil {
			r.noteLedger(j, f.Ledger)
		}
	}
	scale := calibRefSeconds / median(cals)
	fmt.Fprintf(os.Stderr, "perfbench: calibration %.4f s (median of %d, spread %.3f): timings scaled by %.4f; unscaled medians wall_s %.4f s, setup_s %.5f s\n",
		median(cals), len(cals), spread(cals), scale, median(wall), median(setup))
	return endToEndMetrics(scale, setup, wall, cold, warm, tps, rss, probes), nil
}

// endToEndMetrics reduces a run's samples to the end-to-end metrics:
// medians over iterations, percentiles over the pooled probes. The
// timings of work are multiplied by scale (calib.go) and the throughput
// divided by it; the probes, which mostly wait for a core, are not
// scaled.
func endToEndMetrics(scale float64, setup, wall, cold, warm, tps, rss, probes []float64) map[string]metric {
	fmt.Fprintf(os.Stderr, "perfbench: %d iterations; within-run spread (IQR/median) of wall_s %.3f, job_warm_s %.3f, setup_s %.3f\n",
		len(wall), spread(wall), spread(warm), spread(setup))
	vals := map[string]float64{
		"setup_s":        scale * median(setup),
		"wall_s":         scale * median(wall),
		"job_cold_s":     scale * median(cold),
		"job_warm_s":     scale * median(warm),
		"trials_per_s":   median(tps) / scale,
		"healthz_p50_ms": median(probes),
		"healthz_p95_ms": percentile(probes, 95),
		"peak_rss_mb":    median(rss),
	}
	out := make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		out[m.Name] = metric{vals[m.Name], m.Unit}
	}
	return out
}

// suiteSpec is avfbench's default invocation — all fourteen experiments
// with GA searches at the default seed 1 — with the experiments
// requested in an order drawn from seed. The GA seed stays fixed on
// purpose: the searches' work moves with it (the baseline search alone
// evaluated 70 to 93 candidates for seeds 1–5), which would hide any
// smaller change. The request order changes the report and the
// scheduler's job order, not the work.
func suiteSpec(seed int64) scenario.Spec {
	names := experiments.Names()
	rng := splitmix{seed}
	for i := len(names) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		names[i], names[j] = names[j], names[i]
	}
	return scenario.Spec{Seed: 1, Scenarios: names}
}

func campaignSpec(seed int64, trials int) scenario.Spec {
	return scenario.Spec{Mode: "reference", Seed: seed,
		Scenarios: []string{"faultinject", "rootcause"}, InjectTrials: trials}
}

// ledgerCheck requires two iterations of the same inputs to have left
// identical simulated statistics.
func ledgerCheck(a, b ledger) check {
	if d := ledgerDiff(a, b); d != "" {
		return fail("ledger_stable", "%s", d)
	}
	return pass("ledger_stable")
}

// noteLedger records the ledger of the run's input set j and reports
// drift against an earlier run of the same workload and seed in this
// checkout.
func (r *run) noteLedger(j int, l ledger) {
	name := fmt.Sprintf("%s-seed%d-%d.json", r.Workload, r.Seed, j)
	drift, err := recordLedger(filepath.Join(r.Out, "ledger", name), l)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: ledger:", err)
	}
	if drift != "" {
		fmt.Fprintf(os.Stderr, "perfbench: simulated statistics drifted from the previous run of %s seed %d: %s\n",
			r.Workload, r.Seed, drift)
	}
}

// logLate reports how far behind schedule the open-loop generator ran.
func logLate(iter int, late []float64) {
	if len(late) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "perfbench: iteration %d: %d probes, generator lateness p50 %.3f ms, max %.3f ms\n",
		iter, len(late), median(late), percentile(late, 100))
}

// spawnWorker runs one worker iteration and returns its response, its
// set-up time (exec until "ready") and its peak RSS in MB.
func (r *run) spawnWorker(req workerReq) (*workerResp, float64, float64, error) {
	in, err := json.Marshal(req)
	if err != nil {
		return nil, 0, 0, err
	}
	// A hung worker is killed well inside the run's 180 s budget.
	ctx, cancel := context.WithTimeout(context.Background(), workerTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.Self, "worker")
	cmd.Dir = r.Root
	cmd.Stdin = strings.NewReader(string(in))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, 0, err
	}
	var setup float64
	resp, rerr := readResp(stdout, func() { setup = time.Since(start).Seconds() })
	werr := cmd.Wait()
	if rerr != nil || werr != nil {
		return nil, 0, 0, fmt.Errorf("worker: %v", errors.Join(rerr, werr))
	}
	return resp, setup, maxRSSMB(cmd.ProcessState), nil
}

// maxRSSMB is a finished process's peak resident set in MB.
func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}
