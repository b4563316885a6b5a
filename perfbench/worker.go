package main

// The worker is this binary re-executed as a child process: it runs one
// iteration of an in-process workload through the public entry points
// (experiments.NewSpecContext + RunScenarios, as avfbench and avfinject
// do) and reports back on stdout. A process per iteration makes every
// iteration cold, gives set-up time a definite start (exec) and end
// (the "ready" line), and makes peak RSS the iteration's own.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"avfstress/internal/experiments"
	"avfstress/internal/scenario"
	"avfstress/internal/service"
	"avfstress/internal/simcache"
)

// workerReq is one iteration's input.
type workerReq struct {
	// Specs run in order against one shared memory-only store, as the
	// daemon's jobs share its store.
	Specs []scenario.Spec `json:"specs"`
	// WarmRepeats times re-rendering every spec on fresh contexts over
	// the warm store (the second-run path) at least that many times.
	WarmRepeats int `json:"warm_repeats"`
	// SetupOnly exits once the contexts exist: a set-up sample.
	SetupOnly bool `json:"setup_only"`
	// CheckInterval, when positive, re-renders every spec on a fresh
	// store at this fixed checkpoint interval (untimed) and requires the
	// report to be byte-identical to the automatic-interval one.
	CheckInterval int64 `json:"check_interval"`
	// ProbePeriod, when positive, runs the open-loop responsiveness
	// probe during the cold phase.
	ProbePeriod time.Duration `json:"probe_period"`
	// WantRows and WantRC are the report-contract minimums per spec.
	WantRows []int `json:"want_rows"`
	WantRC   []int `json:"want_rc"`
	// Trace selects the traced decomposition instead of a plain
	// iteration; WorkDir holds its scratch files.
	Trace   bool   `json:"trace"`
	WorkDir string `json:"work_dir"`
	// Persist, for a traced run, lists framed cache files whose real
	// payloads the persist probe re-writes (the daemon's disk tier);
	// empty means the in-process blobs.
	Persist []string `json:"persist,omitempty"`
}

// workerResp is one iteration's outcome.
type workerResp struct {
	ColdS   float64   `json:"cold_s"`
	WarmS   float64   `json:"warm_s"`
	Digests []string  `json:"digests"` // full sha256 of each spec's report
	Trials  int       `json:"trials"`
	ProbeMs []float64 `json:"probe_ms"`
	LateMs  []float64 `json:"late_ms"`
	ProbeKO int       `json:"probe_failed"`
	Checks  []check   `json:"checks"`
	Ledger  ledger    `json:"ledger"`
	// Layers holds the traced run's per-layer metrics.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// warmMinSeconds is the least warm rendering time an iteration measures.
const warmMinSeconds = 0.5

// fullDigest identifies a report's canonical form.
func fullDigest(s string) string {
	s = canonical(s)
	return digest(s) + fmt.Sprintf("-%d", len(s))
}

// workerMain runs one iteration: the request arrives on stdin, "ready"
// is printed once the contexts exist, the response is the last stdout
// line.
func workerMain() int {
	var req workerReq
	if err := json.NewDecoder(os.Stdin).Decode(&req); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker: request:", err)
		return 1
	}
	out := bufio.NewWriter(os.Stdout)
	ready := func() {
		fmt.Fprintln(out, "ready")
		out.Flush()
	}
	var (
		resp *workerResp
		err  error
	)
	if req.Trace {
		resp, err = traceIteration(req, ready)
	} else {
		resp, err = runIteration(req, ready)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	b, err := json.Marshal(resp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", b)
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	return 0
}

// contexts builds one context per spec over store.
func contexts(specs []scenario.Spec, store *simcache.Store) ([]*experiments.Context, [][]string, error) {
	cs := make([]*experiments.Context, len(specs))
	names := make([][]string, len(specs))
	for i, sp := range specs {
		c, n, err := experiments.NewSpecContext(sp, experiments.Options{Cache: store})
		if err != nil {
			return nil, nil, err
		}
		cs[i], names[i] = c, n
	}
	return cs, names, nil
}

// renderAll runs every spec's scenarios in order.
func renderAll(ctx context.Context, cs []*experiments.Context, names [][]string) ([]string, error) {
	outs := make([]string, len(cs))
	for i, c := range cs {
		s, err := c.RunScenarios(ctx, names[i])
		if err != nil {
			return nil, err
		}
		outs[i] = s
	}
	return outs, nil
}

func runIteration(req workerReq, ready func()) (*workerResp, error) {
	ctx := context.Background()
	store := simcache.New(simcache.Options{})
	cs, names, err := contexts(req.Specs, store)
	if err != nil {
		return nil, err
	}
	ready()
	resp := &workerResp{}
	if req.SetupOnly {
		return resp, nil
	}
	stop := make(chan struct{})
	probed := make(chan probeResult, 1)
	if req.ProbePeriod > 0 {
		// The daemon's /v1/healthz handler, served in process by an
		// idle service on a fixed schedule while the workload
		// saturates the CPUs: the handler's own cost plus the wait for
		// a core.
		srv, err := service.New(service.Options{})
		if err != nil {
			return nil, err
		}
		go func() {
			probed <- openLoop(realClock{}, req.ProbePeriod, stop, func() error {
				return healthz(srv)
			})
		}()
	}
	t0 := time.Now()
	outs, err := renderAll(ctx, cs, names)
	resp.ColdS = time.Since(t0).Seconds()
	close(stop)
	if req.ProbePeriod > 0 {
		pr := <-probed
		resp.ProbeMs, resp.LateMs = durationsMs(pr.Latency), durationsMs(pr.Late)
		resp.ProbeKO = pr.Failed
	}
	if err != nil {
		return nil, err
	}
	resp.Ledger = buildLedger(ctx, cs, req.Specs, store)

	// A warm rendering takes tens of milliseconds; its median over
	// several repetitions, at least warmMinSeconds of them, is what
	// repeats between runs.
	var warm []float64
	warmTotal := 0.0
	for k := 0; req.WarmRepeats > 0 && (k < req.WarmRepeats || warmTotal < warmMinSeconds); k++ {
		wcs, wnames, err := contexts(req.Specs, store)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		wouts, err := renderAll(ctx, wcs, wnames)
		warm = append(warm, time.Since(t1).Seconds())
		warmTotal += warm[k]
		if err != nil {
			return nil, err
		}
		for i := range outs {
			resp.Checks = append(resp.Checks, sameText("warm_equals_cold", outs[i], wouts[i]))
		}
	}
	resp.WarmS = median(warm)
	if req.CheckInterval > 0 {
		specs := append([]scenario.Spec(nil), req.Specs...)
		for i := range specs {
			specs[i].CheckpointInterval = req.CheckInterval
		}
		fcs, fnames, err := contexts(specs, simcache.New(simcache.Options{}))
		if err != nil {
			return nil, err
		}
		fouts, err := renderAll(ctx, fcs, fnames)
		if err != nil {
			return nil, err
		}
		for i := range outs {
			resp.Checks = append(resp.Checks, sameText("fixed_interval_equals_auto", outs[i], fouts[i]))
		}
	}
	finishResp(resp, req, outs)
	return resp, nil
}

// healthz serves one GET /v1/healthz and requires a 200 with a health
// body whose status is "ok".
func healthz(h http.Handler) error {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/healthz", nil))
	var body service.Health
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		return fmt.Errorf("healthz %d: %v", w.Code, err)
	}
	if w.Code != http.StatusOK || body.Status != "ok" {
		return fmt.Errorf("healthz %d, status %q", w.Code, body.Status)
	}
	return nil
}

// finishResp fills the digests, trial count and report-contract checks.
func finishResp(resp *workerResp, req workerReq, outs []string) {
	for i, s := range outs {
		resp.Digests = append(resp.Digests, fullDigest(s))
		resp.Trials += reportTrials(s)
		wantRows, wantRC := 0, 0
		if i < len(req.WantRows) {
			wantRows = req.WantRows[i]
		}
		if i < len(req.WantRC) {
			wantRC = req.WantRC[i]
		}
		resp.Checks = append(resp.Checks, reportChecks(s, wantRows, wantRC)...)
	}
	resp.Ledger.Digests = resp.Digests
}

// readResp reads a worker's stdout: the "ready" line (timed by the
// caller through onReady), then the response as the last line.
func readResp(r io.Reader, onReady func()) (*workerResp, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var last []byte
	for sc.Scan() {
		line := sc.Bytes()
		if string(line) == "ready" {
			onReady()
			continue
		}
		last = append(last[:0], line...)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(last) == 0 {
		return nil, fmt.Errorf("worker printed no response")
	}
	var resp workerResp
	if err := json.Unmarshal(last, &resp); err != nil {
		return nil, fmt.Errorf("worker response: %v", err)
	}
	return &resp, nil
}
