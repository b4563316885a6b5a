package service

// Service-level robustness tests (DESIGN.md §11): crash recovery with
// byte-identical warm reports, restored history, idempotent
// submission, queue backpressure, graceful drain, panic isolation and
// the per-job timeout.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"avfstress/internal/scenario"
	"avfstress/internal/sched"
)

// durableServer builds a journalled server over the given state dir.
func durableServer(t *testing.T, dir string, mutate func(*Options)) (*Server, *httptest.Server) {
	t.Helper()
	opts := Options{
		MaxJobs:     1,
		Parallelism: 1,
		CacheDir:    filepath.Join(dir, "cache"),
		JournalPath: filepath.Join(dir, "jobs.journal"),
	}
	if mutate != nil {
		mutate(&opts)
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs
}

func fetchReport(t *testing.T, hs *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(hs.URL + "/v1/results/" + id + "?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results %s: %s: %s", id, resp.Status, body)
	}
	return string(body)
}

// TestCrashRecoveryByteIdenticalReport is the tentpole invariant in
// miniature: kill a daemon mid-campaign (no terminal journal record,
// like SIGKILL), restart it on the same journal and cache, and the
// resubmitted job's report is byte-identical to an uninterrupted run —
// warm, because completed simulations were already memoised on disk.
func TestCrashRecoveryByteIdenticalReport(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite in -short mode")
	}
	spec := `{"scenarios":["fig3"],` + fastSpecTail + `}`

	// Baseline: an uninterrupted run on pristine state.
	_, baseHS := durableServer(t, t.TempDir(), nil)
	baseJob := waitTerminal(t, baseHS, submit(t, baseHS, spec).ID)
	if baseJob.Status != StatusDone {
		t.Fatalf("baseline ended %s: %s", baseJob.Status, baseJob.Error)
	}
	want := fetchReport(t, baseHS, baseJob.ID)

	// Chaos: same spec on fresh state, interrupted mid-run.
	dir := t.TempDir()
	srv, hs := durableServer(t, dir, nil)
	st := submit(t, hs, spec)
	// Wait until at least one simulation result is durably cached, so
	// the post-crash run is provably warm.
	cacheDir := filepath.Join(dir, "cache")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if cur := getStatus(t, hs, st.ID); cur.Status.Terminal() {
			t.Fatalf("job finished before it could be interrupted: %s", cur.Status)
		}
		if hasDiskEntry(cacheDir) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no simulation result reached the disk cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
	abandon(t, srv)
	hs.Close()

	// Restart on the same journal + cache: the job comes back under its
	// original id, runs to completion, and the report matches
	// byte-for-byte.
	srv2, hs2 := durableServer(t, dir, nil)
	if srv2.Recovered() != 1 {
		t.Fatalf("recovered %d jobs, want 1", srv2.Recovered())
	}
	got := waitTerminal(t, hs2, st.ID)
	if got.Status != StatusDone {
		t.Fatalf("recovered job ended %s: %s", got.Status, got.Error)
	}
	if !got.Recovered {
		t.Error("recovered job not flagged recovered")
	}
	if report := fetchReport(t, hs2, st.ID); report != want {
		t.Errorf("recovered report differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, report)
	}
	if st := got.Stats; st.MemHits+st.DiskHits+st.Deduped == 0 {
		t.Errorf("recovery was cold: %+v", got.Stats)
	}
}

func hasDiskEntry(dir string) bool {
	found := false
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			found = true
		}
		return nil
	})
	return found
}

// TestRestartRestoresHistory: terminal jobs survive a restart as
// history — status, error and idempotency mapping intact — but their
// reports are not retained: /v1/results answers 410 Gone, and fresh
// submissions continue the id sequence.
func TestRestartRestoresHistory(t *testing.T) {
	dir := t.TempDir()
	srv, hs := durableServer(t, dir, nil)
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/jobs",
		strings.NewReader(`{"scenarios":["table1"]}`))
	req.Header.Set("Idempotency-Key", "alpha")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	done := waitTerminal(t, hs, st.ID)
	if done.Status != StatusDone {
		t.Fatalf("job ended %s: %s", done.Status, done.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	hs.Close()

	srv2, hs2 := durableServer(t, dir, nil)
	if srv2.Recovered() != 0 {
		t.Fatalf("terminal job resubmitted: recovered=%d", srv2.Recovered())
	}
	got := getStatus(t, hs2, st.ID)
	if got.Status != StatusDone || !got.Recovered {
		t.Fatalf("restored history: %+v", got)
	}
	// The report itself was not retained: 410 with a resubmission hint.
	rresp, err := http.Get(hs2.URL + "/v1/results/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusGone || !bytes.Contains(body, []byte("memoised")) {
		t.Errorf("results of a restored job: %s %s, want 410 + resubmission hint", rresp.Status, body)
	}
	// The idempotency mapping survived: the same key replays, not reruns.
	req2, _ := http.NewRequest(http.MethodPost, hs2.URL+"/v1/jobs",
		strings.NewReader(`{"scenarios":["table1"]}`))
	req2.Header.Set("Idempotency-Key", "alpha")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	var replay JobStatus
	json.NewDecoder(resp2.Body).Decode(&replay)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || replay.ID != st.ID {
		t.Errorf("idempotent replay after restart: %s id=%s, want 200 id=%s", resp2.Status, replay.ID, st.ID)
	}
	// Fresh submissions continue the sequence instead of colliding.
	st2 := submit(t, hs2, `{"scenarios":["table2"]}`)
	if st2.ID == st.ID {
		t.Errorf("restarted daemon reissued id %s", st2.ID)
	}
	waitTerminal(t, hs2, st2.ID)
}

// TestIdempotencyKeyDedups: submitting the same Idempotency-Key twice
// returns the original job with a replay marker instead of a new job.
func TestIdempotencyKeyDedups(t *testing.T) {
	_, hs := testServer(t)
	send := func() (*http.Response, JobStatus) {
		req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/jobs",
			strings.NewReader(`{"scenarios":["table1"]}`))
		req.Header.Set("Idempotency-Key", "retry-42")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		return resp, st
	}
	r1, st1 := send()
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %s", r1.Status)
	}
	r2, st2 := send()
	if r2.StatusCode != http.StatusOK || st2.ID != st1.ID {
		t.Fatalf("duplicate submit: %s id=%s, want 200 id=%s", r2.Status, st2.ID, st1.ID)
	}
	if r2.Header.Get("Idempotency-Replayed") != "true" {
		t.Error("replay marker header missing")
	}
	// A different key is a different job.
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/jobs",
		strings.NewReader(`{"scenarios":["table1"]}`))
	req.Header.Set("Idempotency-Key", "other")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st3 JobStatus
	json.NewDecoder(resp.Body).Decode(&st3)
	resp.Body.Close()
	if st3.ID == st1.ID {
		t.Error("distinct keys collapsed to one job")
	}
	waitTerminal(t, hs, st1.ID)
	waitTerminal(t, hs, st3.ID)
}

// TestQueueBackpressure: MaxQueue bounds admitted unfinished jobs with
// 429 + Retry-After; capacity frees as work drains.
func TestQueueBackpressure(t *testing.T) {
	block := make(chan struct{})
	testRunJob = func(ctx context.Context, j *job) (string, error) {
		select {
		case <-block:
			return "held report", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	defer func() { testRunJob = nil }()

	srv, err := New(Options{MaxJobs: 1, MaxQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	a := submit(t, hs, `{"scenarios":["table1"]}`)
	b := submit(t, hs, `{"scenarios":["table1"]}`)
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"scenarios":["table1"]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: %s %s, want 429", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	close(block)
	waitTerminal(t, hs, a.ID)
	waitTerminal(t, hs, b.ID)
	// Capacity freed: the next submission is admitted again.
	c := submit(t, hs, `{"scenarios":["table1"]}`)
	waitTerminal(t, hs, c.ID)
}

// TestPanicFailsOnlyThatJob: a panic inside a job's fanned-out work is
// contained by sched.Each — the job fails with the stack in its
// status, the daemon keeps serving (healthz 200/ok) and later jobs
// succeed.
func TestPanicFailsOnlyThatJob(t *testing.T) {
	calls := 0
	testRunJob = func(ctx context.Context, j *job) (string, error) {
		calls++
		if calls == 1 {
			// Run the panic through the real fan-out containment path.
			err := sched.Each(ctx, 1, 1, func(context.Context, int) error { panic("injected wreckage") })
			return "", err
		}
		return "healthy report", nil
	}
	defer func() { testRunJob = nil }()

	_, hs := testServer(t)
	bad := waitTerminal(t, hs, submit(t, hs, `{"scenarios":["table1"]}`).ID)
	if bad.Status != StatusFailed {
		t.Fatalf("panicking job ended %s, want failed", bad.Status)
	}
	if !strings.Contains(bad.Error, "injected wreckage") || !strings.Contains(bad.Error, "goroutine") {
		t.Errorf("status does not carry the panic stack: %q", bad.Error)
	}
	// The daemon is still healthy and still does work.
	checkHealthy(t, hs)
	good := waitTerminal(t, hs, submit(t, hs, `{"scenarios":["table1"]}`).ID)
	if good.Status != StatusDone {
		t.Errorf("job after a panic ended %s: %s", good.Status, good.Error)
	}
}

// checkHealthy asserts GET /v1/healthz answers 200 with status ok.
func checkHealthy(t *testing.T, hs *httptest.Server) {
	t.Helper()
	resp, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Errorf("healthz: %d %q, want 200 ok", resp.StatusCode, h.Status)
	}
}

// TestJobTimeoutFailsJob: a job that outlives the server's JobTimeout
// ends failed (not canceled) with an error naming the timeout, while a
// job cancelled with DELETE under an armed timeout still ends canceled;
// the daemon keeps serving and the next job completes.
func TestJobTimeoutFailsJob(t *testing.T) {
	started := make(chan struct{}, 1)
	testRunJob = func(ctx context.Context, j *job) (string, error) {
		if j.spec.Scenarios[0] == "table2" {
			return "quick report", nil
		}
		started <- struct{}{}
		<-ctx.Done() // outlive the timeout, or wait for the DELETE
		return "", ctx.Err()
	}
	defer func() { testRunJob = nil }()

	server := func(timeout time.Duration) *httptest.Server {
		srv, err := New(Options{MaxJobs: 1, Parallelism: 1, JobTimeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv)
		t.Cleanup(hs.Close)
		return hs
	}

	hs := server(20 * time.Millisecond)
	st := waitTerminal(t, hs, submit(t, hs, `{"scenarios":["table1"]}`).ID)
	<-started
	if st.Status != StatusFailed {
		t.Fatalf("job past its timeout ended %s (%s), want failed", st.Status, st.Error)
	}
	if !strings.Contains(st.Error, "20ms job timeout") {
		t.Errorf("error does not name the timeout: %q", st.Error)
	}
	if st := waitTerminal(t, hs, submit(t, hs, `{"scenarios":["table2"]}`).ID); st.Status != StatusDone {
		t.Errorf("job after a timeout ended %s: %s", st.Status, st.Error)
	}
	checkHealthy(t, hs)

	// A generous timeout keeps the DELETE ahead of the deadline.
	hs = server(time.Minute)
	id := submit(t, hs, `{"scenarios":["table1"]}`).ID
	<-started
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := waitTerminal(t, hs, id); st.Status != StatusCanceled {
		t.Errorf("deleted job ended %s (%s), want canceled", st.Status, st.Error)
	}
	if st := waitTerminal(t, hs, submit(t, hs, `{"scenarios":["table2"]}`).ID); st.Status != StatusDone {
		t.Errorf("job after a cancellation ended %s: %s", st.Status, st.Error)
	}
	checkHealthy(t, hs)
}

// TestDrainRefusesAndResumes: draining refuses new work with 503; a
// job still running at the drain deadline is suspended without a
// terminal journal record and resubmitted by the next daemon.
func TestDrainRefusesAndResumes(t *testing.T) {
	block := make(chan struct{})
	testRunJob = func(ctx context.Context, j *job) (string, error) {
		select {
		case <-block:
			return "report", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	defer func() { testRunJob = nil }()

	dir := t.TempDir()
	srv, hs := durableServer(t, dir, nil)
	st := submit(t, hs, `{"scenarios":["table1"]}`)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(ctx) }()

	// While draining, submissions are refused.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"scenarios":["table1"]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining server still admits jobs: %s", resp.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := <-drainErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain past its deadline returned %v", err)
	}
	got := getStatus(t, hs, st.ID)
	if got.Status != StatusCanceled {
		t.Fatalf("suspended job is %s, want canceled", got.Status)
	}
	hs.Close()

	// The journal kept only the submission: the next daemon resumes it.
	srv2, hs2 := durableServer(t, dir, nil)
	if srv2.Recovered() != 1 {
		t.Fatalf("recovered %d jobs, want 1", srv2.Recovered())
	}
	close(block)
	resumed := waitTerminal(t, hs2, st.ID)
	if resumed.Status != StatusDone {
		t.Fatalf("resumed job ended %s: %s", resumed.Status, resumed.Error)
	}
	if report := fetchReport(t, hs2, st.ID); report != "report" {
		t.Errorf("resumed report %q", report)
	}
}

// TestHealthzReportsJournalDamage: corrupt journal lines surface in
// /v1/healthz as a degraded (but still 200) daemon.
func TestHealthzReportsJournalDamage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")
	if err := os.WriteFile(path, []byte("deadbeef not a valid journal line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, hs := durableServer(t, dir, nil)
	resp, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	if h.Status != "degraded" || h.Journal == nil || h.Journal.CorruptLines != 1 {
		t.Errorf("health %+v, want degraded with 1 corrupt line", h)
	}
	if h.Queue.Capacity == 0 {
		t.Errorf("queue capacity unreported: %+v", h.Queue)
	}
}

// TestUnresolvableJournalledSpecFailsCleanly: a journalled spec that no
// longer resolves becomes a failed job on restart, not a crash loop.
func TestUnresolvableJournalledSpecFailsCleanly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")
	jl, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.append(journalRecord{
		Op: journalOpSubmit, ID: "job-1",
		Spec: &scenario.Spec{Scenarios: []string{"no-such-scenario"}},
		Time: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	jl.close()

	srv, hs := durableServer(t, dir, nil)
	if srv.Recovered() != 0 {
		t.Errorf("unresolvable spec counted as recovered")
	}
	st := getStatus(t, hs, "job-1")
	if st.Status != StatusFailed || !strings.Contains(st.Error, "no-such-scenario") {
		t.Errorf("unresolvable journalled job: %+v", st)
	}
}
