package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// testServer builds a server with MaxJobs 1 (deterministic per-job
// cache attribution) and returns it with its HTTP front end.
func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Options{MaxJobs: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs
}

func submit(t *testing.T, hs *httptest.Server, spec string) JobStatus {
	t.Helper()
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, buf.String())
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getStatus(t *testing.T, hs *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(hs.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitTerminal(t *testing.T, hs *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, hs, id)
		if st.Status.Terminal() {
			return st
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobStatus{}
}

// fastSpec keeps service tests cheap: reference knobs, tiny windows.
const fastSpecTail = `"mode":"reference","workload_instr":40000,"workload_warmup":10000,"parallelism":1`

func TestSubmitRunFetch(t *testing.T) {
	_, hs := testServer(t)
	st := submit(t, hs, `{"scenarios":["table1","table2"]}`)
	if st.Status != StatusQueued && st.Status != StatusRunning {
		t.Errorf("fresh job status %s", st.Status)
	}
	if len(st.Scenarios) != 2 {
		t.Errorf("resolved scenarios %v", st.Scenarios)
	}
	st = waitTerminal(t, hs, st.ID)
	if st.Status != StatusDone {
		t.Fatalf("job ended %s: %s", st.Status, st.Error)
	}
	resp, err := http.Get(hs.URL + "/v1/results/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res struct {
		Report string `json:"report"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table I —", "Table II —", strings.Repeat("=", 72)} {
		if !strings.Contains(res.Report, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// format=text returns the raw report.
	resp2, err := http.Get(hs.URL + "/v1/results/" + st.ID + "?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp2.Body)
	if buf.String() != res.Report {
		t.Error("text results differ from the JSON report")
	}
}

func TestBadRequests(t *testing.T) {
	// Nothing here may run: a request that slipped past admission would
	// otherwise allocate its whole campaign or population.
	testRunJob = func(context.Context, *job) (string, error) {
		t.Error("a bad request was admitted and started")
		return "", nil
	}
	defer func() { testRunJob = nil }()
	_, hs := testServer(t)
	for _, tc := range []struct {
		spec string
		code int
	}{
		{`{"scenarios":["bogus"]}`, http.StatusBadRequest},
		{`{"scenarios":["faultinject"],"inject_trials":1000000001}`, http.StatusBadRequest},
		{`{"scenarios":["faultinject:baseline:uniform:1000000001"]}`, http.StatusBadRequest},
		{`{"scenarios":["fig5"],"ga_pop":1000000001}`, http.StatusBadRequest},
		{`{"mode":"guess"}`, http.StatusBadRequest},
		{`{"unknown_field":1}`, http.StatusBadRequest},
		{`{"scenarios":["faultinject"],"prune_static":-1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
		{`{"scenarios":["table1"]} trailing`, http.StatusBadRequest},
		{`{"scenarios":["table1"]}{"x":1}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("spec %q: status %d, want %d", tc.spec, resp.StatusCode, tc.code)
		}
	}
	resp, err := http.Get(hs.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job id: %d, want 404", resp.StatusCode)
	}
}

// TestCheckpointIntervalAcceptedAndIgnored: checkpoint_interval still
// decodes — old clients and journalled jobs carry it — and changes no
// report.
func TestCheckpointIntervalAcceptedAndIgnored(t *testing.T) {
	_, hs := testServer(t)
	const tail = `"scenarios":["faultinject:baseline:uniform:50"],` + fastSpecTail + `}`
	var reports []string
	for _, spec := range []string{`{` + tail, `{"checkpoint_interval":1024,` + tail} {
		st := waitTerminal(t, hs, submit(t, hs, spec).ID)
		if st.Status != StatusDone {
			t.Fatalf("%s: job ended %s: %s", spec, st.Status, st.Error)
		}
		reports = append(reports, fetchReport(t, hs, st.ID))
	}
	if reports[0] != reports[1] {
		t.Error("checkpoint_interval changed the report")
	}
}

func TestResultsBeforeDoneConflict(t *testing.T) {
	_, hs := testServer(t)
	st := submit(t, hs, `{"scenarios":["fig3"],`+fastSpecTail+`}`)
	resp, err := http.Get(hs.URL + "/v1/results/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := waitTerminal(t, hs, st.ID); got.Status != StatusDone {
		t.Fatalf("job ended %s: %s", got.Status, got.Error)
	}
	if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
		t.Errorf("results while running: %d, want 409 (or 200 if already done)", resp.StatusCode)
	}
}

// TestOverlappingJobsShareSimulations is the serve-smoke contract in
// miniature: two jobs whose scenarios overlap share the server's store,
// so the second job's stats show cache hits and fewer fresh simulations
// than the first.
func TestOverlappingJobsShareSimulations(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite in -short mode")
	}
	_, hs := testServer(t)
	// Both submitted immediately; MaxJobs=1 queues the second while the
	// first runs, making the attribution deterministic.
	a := submit(t, hs, `{"scenarios":["fig3","fig4"],`+fastSpecTail+`}`)
	b := submit(t, hs, `{"scenarios":["fig3","fig4","fig7"],`+fastSpecTail+`}`)
	as := waitTerminal(t, hs, a.ID)
	bs := waitTerminal(t, hs, b.ID)
	if as.Status != StatusDone || bs.Status != StatusDone {
		t.Fatalf("jobs ended %s/%s: %s %s", as.Status, bs.Status, as.Error, bs.Error)
	}
	if as.Stats.Simulated == 0 {
		t.Fatalf("first job simulated nothing: %+v", as.Stats)
	}
	if st := bs.Stats; st.MemHits+st.DiskHits+st.Deduped == 0 {
		t.Errorf("second job saw no cache hits: %+v", bs.Stats)
	}
	if bs.Stats.Simulated >= as.Stats.Simulated {
		t.Errorf("second job simulated %d, first %d — overlap not shared",
			bs.Stats.Simulated, as.Stats.Simulated)
	}
}

// TestCancellation: cancelling a running search-mode job ends it as
// canceled without corrupting the store — the same spec resubmitted
// afterwards completes.
func TestCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("GA search in -short mode")
	}
	_, hs := testServer(t)
	spec := `{"scenarios":["fig5"],"mode":"search","ga_pop":6,"ga_gens":12,"parallelism":1,"workload_instr":40000,"workload_warmup":10000}`
	st := submit(t, hs, spec)
	// Wait for the GA to emit progress, then cancel mid-search.
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur := getStatus(t, hs, st.ID)
		if len(cur.Progress) > 0 && cur.Status == StatusRunning {
			break
		}
		if cur.Status.Terminal() {
			t.Fatalf("job finished before it could be cancelled: %s", cur.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress observed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := waitTerminal(t, hs, st.ID)
	if got.Status != StatusCanceled {
		t.Fatalf("cancelled job ended %s (%s)", got.Status, got.Error)
	}
	if !strings.Contains(got.Error, "context canceled") {
		t.Errorf("cancellation cause lost: %q", got.Error)
	}
	// Results of a canceled job are gone.
	rresp, err := http.Get(hs.URL + "/v1/results/" + got.ID)
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusGone {
		t.Errorf("results of a canceled job: %d, want 410", rresp.StatusCode)
	}
	// The store survives: the same spec completes on resubmission.
	st2 := waitTerminal(t, hs, submit(t, hs, spec).ID)
	if st2.Status != StatusDone {
		t.Fatalf("resubmitted job ended %s: %s", st2.Status, st2.Error)
	}
}

// TestStreamedProgress: ?stream=1 delivers the job's progress lines and
// a final status line.
func TestStreamedProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite in -short mode")
	}
	_, hs := testServer(t)
	st := submit(t, hs, `{"scenarios":["fig4"],`+fastSpecTail+`}`)
	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "status: done") {
		t.Errorf("stream did not end with a terminal status:\n%s", out)
	}
	if !strings.Contains(out, "workload proxies") {
		t.Errorf("stream carries no experiment progress:\n%s", out)
	}
}

// TestListJobs: the listing covers every submission in order with
// server-wide store stats.
func TestListJobs(t *testing.T) {
	_, hs := testServer(t)
	a := submit(t, hs, `{"scenarios":["table1"]}`)
	b := submit(t, hs, `{"scenarios":["table2"]}`)
	waitTerminal(t, hs, a.ID)
	waitTerminal(t, hs, b.ID)
	resp, err := http.Get(hs.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 || list.Jobs[0].ID != a.ID || list.Jobs[1].ID != b.ID {
		ids := make([]string, len(list.Jobs))
		for i, j := range list.Jobs {
			ids[i] = j.ID
		}
		t.Errorf("listing %v, want [%s %s]", ids, a.ID, b.ID)
	}
}

// abandon stops srv at once: a Drain whose deadline has already
// passed cancels every unfinished job without a terminal journal
// record — from the journal's point of view, indistinguishable from
// SIGKILL — and returns once the jobs have stopped.
func abandon(tb testing.TB, srv *Server) {
	tb.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Drain(ctx); err != nil && !errors.Is(err, context.Canceled) {
		tb.Fatal(err)
	}
}

// TestShutdownDrains: an immediate stop cancels running jobs and
// returns.
func TestShutdownDrains(t *testing.T) {
	srv, hs := testServer(t)
	st := submit(t, hs, `{"scenarios":["fig3"],`+fastSpecTail+`}`)
	abandon(t, srv)
	got := getStatus(t, hs, st.ID)
	if !got.Status.Terminal() {
		t.Errorf("job still %s after shutdown", got.Status)
	}
}

// TestHistoryEviction: maxHistory bounds retained jobs; the oldest
// terminal jobs are evicted, running jobs never are.
func TestHistoryEviction(t *testing.T) {
	srv, err := New(Options{MaxJobs: 1, maxHistory: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		st := submit(t, hs, `{"scenarios":["table1"]}`)
		waitTerminal(t, hs, st.ID)
		ids = append(ids, st.ID)
	}
	resp, err := http.Get(hs.URL + "/v1/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest job still retained: %d, want 404", resp.StatusCode)
	}
	for _, id := range ids[1:] {
		if st := getStatus(t, hs, id); st.Status != StatusDone {
			t.Errorf("job %s lost: %+v", id, st)
		}
	}
}

// TestHistoryEvictionSkipsRunningJobs: eviction walks from the oldest
// job but never drops a non-terminal one; the newer terminal jobs go
// instead, and the listing keeps submission order.
func TestHistoryEvictionSkipsRunningJobs(t *testing.T) {
	release := make(chan struct{})
	testRunJob = func(ctx context.Context, j *job) (string, error) {
		if j.spec.Scenarios[0] != "table2" {
			return "quick report", nil
		}
		select {
		case <-release:
			return "held report", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	defer func() { testRunJob = nil }()

	srv, err := New(Options{MaxJobs: 2, maxHistory: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	held := submit(t, hs, `{"scenarios":["table2"]}`)
	var ids []string
	for i := 0; i < 3; i++ {
		st := submit(t, hs, `{"scenarios":["table1"]}`)
		waitTerminal(t, hs, st.ID)
		ids = append(ids, st.ID)
	}
	if st := getStatus(t, hs, held.ID); st.ID != held.ID || st.Status.Terminal() {
		t.Fatalf("running job evicted or ended early: %+v", st)
	}
	for _, id := range ids[:2] {
		resp, err := http.Get(hs.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("terminal job %s retained past the cap: %d, want 404", id, resp.StatusCode)
		}
	}
	close(release)
	waitTerminal(t, hs, held.ID)
	resp, err := http.Get(hs.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 || list.Jobs[0].ID != held.ID || list.Jobs[1].ID != ids[2] {
		t.Errorf("listing %+v, want [%s %s]", list.Jobs, held.ID, ids[2])
	}
}

// TestHealthzLatencyOneCPU locks the control plane's latency on one P:
// while a busy reference-mode job (fig3 plus a fault-injection
// campaign) runs every fan-out through sched.Each, GET /v1/healthz —
// probed every 5 ms — must keep its p99 under 50 ms. A CPU-bound item
// that never yields (a campaign's one replay is a single item of tens
// of milliseconds) holds the P until asynchronous preemption and pushes
// the p99 past the bound; the simulator's cycle loop yields to keep it
// under.
func TestHealthzLatencyOneCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("busy job in -short mode")
	}
	if raceEnabled {
		t.Skip("the race detector's slowdown is not the control plane's latency")
	}
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	srv, hs := testServer(t)
	// Sized to run about 6 s on one P: the probe's client shares that P,
	// so a probe takes ~40 ms, and the p99 needs at least 100 samples.
	id := submit(t, hs, `{"scenarios":["fig3","faultinject"],"mode":"reference","inject_trials":5000,"workload_instr":400000,"workload_warmup":100000}`).ID
	srv.mu.Lock()
	done := srv.jobs[id].done
	srv.mu.Unlock()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	var lat []time.Duration
	for running := true; running; {
		t0 := time.Now()
		resp, err := http.Get(hs.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		lat = append(lat, time.Since(t0))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz: %s", resp.Status)
		}
		select {
		case <-done:
			running = false
		case <-tick.C:
		}
	}
	if st := getStatus(t, hs, id); st.Status != StatusDone {
		t.Fatalf("busy job ended %s: %s", st.Status, st.Error)
	}
	slices.Sort(lat)
	if len(lat) < 100 {
		t.Fatalf("only %d healthz samples (p50 %v): the busy job is too short to measure", len(lat), lat[len(lat)/2])
	}
	p99 := lat[(len(lat)*99+99)/100-1]
	t.Logf("%d healthz samples: p50 %v, p90 %v, p99 %v, max %v",
		len(lat), lat[len(lat)/2], lat[len(lat)*9/10], p99, lat[len(lat)-1])
	if p99 >= 50*time.Millisecond {
		t.Errorf("healthz p99 %v on one P, want < 50ms", p99)
	}
}
