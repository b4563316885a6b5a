package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"avfstress/internal/avf"
	"avfstress/internal/scenario"
)

func specOf(t *testing.T, s string) scenario.Spec {
	t.Helper()
	var spec scenario.Spec
	if err := json.Unmarshal([]byte(s), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// clusterSpec is a small fault-injection campaign: the only scenario
// family with leased (shardable) jobs, kept cheap with reference knobs
// and tiny windows. Identical on every node by construction. The
// rootcause view rides along sharing the uniform campaign's memoised
// study — zero extra replays — which puts the attribution tables under
// the fabric's byte-identity contract too. checkpoint_interval -1
// forks every slice from cycle zero: the slice count (one leased job
// per slice) is the same at every interval, but each job runs longer,
// so a runner can be lost while it still holds a lease.
const clusterSpec = `{"scenarios":["faultinject:baseline:uniform:120","faultinject:baseline:rhc:120","rootcause:baseline:uniform:120"],"mode":"reference","scale":32,"seed":1,"workload_instr":30000,"workload_warmup":8000,"checkpoint_interval":-1}`

// clusterProcs widens GOMAXPROCS for the duration of a test. The
// in-process cluster tests run coordinator compute, runner compute and
// both sides' HTTP traffic in one process; at GOMAXPROCS=1 (the CI
// container has one CPU) the compute goroutines starve the HTTP
// handlers for hundreds of milliseconds at a stretch, so a runner can
// never win a claim race. Real deployments are separate processes the
// OS preempts fairly; widening the in-process scheduler restores that
// fairness without needing more hardware.
func clusterProcs(t *testing.T) {
	t.Helper()
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// coordinator builds a cluster coordinator with a fast lease clock.
func coordinator(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Options{
		MaxJobs: 1, Parallelism: 1,
		HeartbeatInterval: 20 * time.Millisecond,
		LeaseTTL:          time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs
}

// startRunner joins one in-process runner to url and returns its
// cancel. The runner uses a memory-only store (runners never share a
// disk tier).
func startRunner(t *testing.T, url, name string, client *http.Client) (*Runner, context.CancelFunc) {
	t.Helper()
	r := NewRunner(RunnerOptions{Coordinator: url, Name: name, Workers: 2, Client: client})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); r.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("runner did not stop")
		}
	})
	return r, cancel
}

// waitRunners polls until n runners are connected.
func waitRunners(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if srv.fabric.clusterHealth().ConnectedRunners >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%d runners never connected", n)
}

func reportText(t *testing.T, hs *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(hs.URL + "/v1/results/" + id + "?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: %s: %s", resp.Status, body)
	}
	return string(body)
}

func runJob(t *testing.T, hs *httptest.Server, spec string) string {
	t.Helper()
	st := submit(t, hs, spec)
	end := waitTerminal(t, hs, st.ID)
	if end.Status != StatusDone {
		t.Fatalf("job %s ended %s: %s", st.ID, end.Status, end.Error)
	}
	return reportText(t, hs, st.ID)
}

// TestClusterByteIdentity is the fabric's core contract: a campaign
// sharded across a coordinator and two runners produces a report
// byte-identical to a single daemon's, runners demonstrably take
// leases, and a warm re-run through the same cluster matches too.
func TestClusterByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster campaigns in -short mode")
	}
	clusterProcs(t)
	// Single-node baseline: a plain daemon with no runners joined.
	_, solo := testServer(t)
	want := runJob(t, solo, clusterSpec)
	for _, s := range []string{"Root-cause instruction analysis", "Root-cause instructions", "Root-cause instruction classes"} {
		if !strings.Contains(want, s) {
			t.Fatalf("solo report missing %q — the rootcause scenario did not render", s)
		}
	}

	srv, hs := coordinator(t)
	startRunner(t, hs.URL, "r1", nil)
	startRunner(t, hs.URL, "r2", nil)
	waitRunners(t, srv, 2)

	got := runJob(t, hs, clusterSpec)
	if got != want {
		t.Errorf("3-node report differs from the single-daemon report:\n--- cluster\n%s\n--- solo\n%s", got, want)
	}
	h := srv.fabric.clusterHealth()
	if h.LeasedJobs == 0 {
		t.Error("no jobs were leased to runners — the campaign did not shard")
	}

	// Warm re-run through the same cluster: still byte-identical.
	if warm := runJob(t, hs, clusterSpec); warm != want {
		t.Error("warm cluster re-run differs from the single-daemon report")
	}

	// Satellite: /v1/healthz carries the cluster fields and stays "ok".
	resp, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health Health
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz = %s/%s, want 200/ok", resp.Status, health.Status)
	}
	switch {
	case health.Cluster == nil:
		t.Error("healthz has no cluster section")
	case health.Cluster.ConnectedRunners != 2:
		t.Errorf("healthz connected_runners = %d, want 2", health.Cluster.ConnectedRunners)
	case health.Cluster.LeasedJobs == 0:
		t.Error("healthz leased_jobs = 0, want > 0")
	case health.Cluster.RemoteGets > 0 && health.Cluster.RemoteHitRate <= 0:
		t.Errorf("healthz remote hit rate = %v with %d gets served", health.Cluster.RemoteHitRate, health.Cluster.RemoteGets)
	}
}

// cuttableTransport severs all requests when cut — the in-process
// equivalent of SIGKILLing a runner: heartbeats stop, releases are
// lost, and held claims can only move by lease-TTL stealing.
type cuttableTransport struct {
	cut atomic.Bool
	rt  http.RoundTripper
}

func (c *cuttableTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if c.cut.Load() {
		return nil, errors.New("transport cut (runner killed)")
	}
	return c.rt.RoundTrip(req)
}

// TestClusterRunnerLossStealsJobs kills a runner mid-campaign and
// demands the campaign still completes with a byte-identical report,
// with the dead runner's claims re-arbitrated by stealing.
func TestClusterRunnerLossStealsJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster campaigns in -short mode")
	}
	clusterProcs(t)
	_, solo := testServer(t)
	want := runJob(t, solo, clusterSpec)

	srv, hs := coordinator(t)
	ct := &cuttableTransport{rt: http.DefaultTransport}
	_, kill := startRunner(t, hs.URL, "victim", &http.Client{Transport: ct})
	waitRunners(t, srv, 1)

	st := submit(t, hs, clusterSpec)

	// Kill the runner the moment it holds a job lease: sever its
	// transport (no more heartbeats or releases) and stop its work.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if h := srv.fabric.clusterHealth(); h.ActiveLeases > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	ct.cut.Store(true)
	kill()

	end := waitTerminal(t, hs, st.ID)
	if end.Status != StatusDone {
		t.Fatalf("job ended %s after runner loss: %s", end.Status, end.Error)
	}
	if got := reportText(t, hs, st.ID); got != want {
		t.Error("report after runner loss differs from the single-daemon report")
	}
	h := srv.fabric.clusterHealth()
	if h.StolenJobs == 0 {
		t.Error("no claims were stolen from the killed runner")
	}
	if h.ConnectedRunners != 0 {
		t.Errorf("killed runner still counted connected (%d)", h.ConnectedRunners)
	}
	// A lost runner is a capacity event, not a fault: health stays ok.
	resp, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health Health
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Errorf("health after runner loss = %q, want ok", health.Status)
	}
	if health.Cluster == nil || health.Cluster.StolenJobs == 0 {
		t.Errorf("healthz cluster = %+v, want stolen jobs surfaced", health.Cluster)
	}
}

// flippingProxy forwards to the coordinator but flips one bit — at a
// configurable offset — in every /v1/cache GET response body.
func flippingProxy(t *testing.T, srv *Server, offset *atomic.Int64) *httptest.Server {
	t.Helper()
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, "/v1/cache/") {
			srv.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK && len(body) > 0 {
			body[int(offset.Load())%len(body)] ^= 0x20
		}
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(proxy.Close)
	return proxy
}

// TestClusterCorruptFetchRejectedEveryOffset is the wire half of the
// corruption contract (satellite of DESIGN.md §11/§13): a runner
// receiving a framed cache entry bit-flipped at ANY offset must reject
// it, count a quarantine, and recompute — never decode a wrong result.
func TestClusterCorruptFetchRejectedEveryOffset(t *testing.T) {
	srv, _ := coordinator(t)

	// Seed the coordinator's store with one result entry.
	key := srv.Store().Key("wire-corruption-victim")
	want := &avf.Result{Config: "cfg", Workload: "victim", Cycles: 987, Instructions: 654, IPC: 1.5}
	if _, err := srv.Store().Do(key, func() (*avf.Result, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	framed, ok := srv.Store().ExportResult(key)
	if !ok {
		t.Fatal("seeded entry does not export")
	}

	var offset atomic.Int64
	proxy := flippingProxy(t, srv, &offset)

	for off := 0; off < len(framed); off++ {
		offset.Store(int64(off))
		// A fresh runner store per offset so each fetch is cold. The
		// runner is never joined: claim arbitration degrades to local
		// compute, which is exactly the recovery path under test.
		r := NewRunner(RunnerOptions{Coordinator: proxy.URL, Name: fmt.Sprintf("flip-%d", off)})
		sims := 0
		got, err := r.Store().Do(key, func() (*avf.Result, error) {
			sims++
			c := *want
			return &c, nil
		})
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if got.Cycles != want.Cycles || got.Workload != want.Workload {
			t.Fatalf("offset %d: corrupt wire entry decoded into a different result", off)
		}
		if sims != 1 {
			t.Fatalf("offset %d: simulated %d times, want 1 (reject + recompute)", off, sims)
		}
		if q := r.Store().Stats().Quarantined; q == 0 {
			t.Fatalf("offset %d: corrupt wire entry not counted as quarantine", off)
		}
	}

	// Control: with the flip disabled (offset beyond a 204/404 path is
	// still a flip, so point the runner at the coordinator directly),
	// the fetch is a clean remote hit with no simulation.
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	r := NewRunner(RunnerOptions{Coordinator: hs.URL, Name: "clean"})
	got, err := r.Store().Do(key, func() (*avf.Result, error) {
		t.Error("clean wire entry was recomputed")
		return nil, nil
	})
	if err != nil || got.Cycles != want.Cycles {
		t.Fatalf("clean fetch = (%+v, %v)", got, err)
	}
	if st := r.Store().Stats(); st.RemoteHits != 1 || st.Quarantined != 0 {
		t.Errorf("clean fetch stats = %+v, want one remote hit, no quarantine", st)
	}
}

// TestClusterRunnersComeAndGo pins connection accounting: runners
// joining show up in healthz, and stopping them drops the count after
// the lease TTL with the daemon still "ok".
func TestClusterRunnersComeAndGo(t *testing.T) {
	srv, hs := coordinator(t)
	_, stop1 := startRunner(t, hs.URL, "a", nil)
	_, stop2 := startRunner(t, hs.URL, "b", nil)
	waitRunners(t, srv, 2)

	stop1()
	stop2()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if srv.fabric.clusterHealth().ConnectedRunners == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.fabric.clusterHealth().ConnectedRunners; got != 0 {
		t.Fatalf("connected runners after stop = %d, want 0", got)
	}
	resp, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health Health
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Errorf("health after runners left = %q, want ok", health.Status)
	}
}
