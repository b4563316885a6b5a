package main

// The daemon cycle of the traced campaign run: avfstressd as a child
// process with a disk cache and a journal on fresh directories. One
// closed-loop client submits the campaign spec cold, the daemon restarts
// on the same directories, and the client resubmits it warm. An
// open-loop client probes /v1/healthz on a fixed schedule through the
// cold phase. A second daemon without a disk cache or journal then runs
// the same spec cold, so the disk tier's share of the cold job is a
// measured difference. The benchmark uses two client goroutines, each
// with its own connection.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"avfstress/internal/scenario"
	"avfstress/internal/service"
)

// daemonProc is one running avfstressd.
type daemonProc struct {
	cmd   *exec.Cmd
	base  string
	setup float64
	done  chan error
}

// startDaemon launches avfstressd on an ephemeral port and waits until
// /healthz answers 200; setup is the time from exec to that answer. With
// disk it keeps its cache and journal under dir, else it is memory-only.
func (r *run) startDaemon(dir string, disk bool) (*daemonProc, error) {
	args := []string{"-addr", "127.0.0.1:0", "-quiet"}
	if disk {
		args = append(args, "-cache-dir", filepath.Join(dir, "cache"), "-journal", filepath.Join(dir, "journal"))
	}
	cmd := exec.Command(r.Daemon, args...)
	cmd.Dir = dir
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		// Forward the daemon's log after picking out its address; the
		// goroutine ends when the daemon exits and closes stderr.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addr <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
				continue
			}
			fmt.Fprintln(os.Stderr, line)
		}
		d.done <- cmd.Wait()
	}()
	select {
	case d.base = <-addr:
	case err := <-d.done:
		return nil, fmt.Errorf("avfstressd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("avfstressd did not start listening within 30s")
	}
	c := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := c.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			d.kill()
			return nil, fmt.Errorf("avfstressd /healthz not ready within 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	d.setup = time.Since(start).Seconds()
	return d, nil
}

// stop sends SIGTERM (the daemon drains and exits) and waits; it
// returns the process's peak RSS in MB.
func (d *daemonProc) stop() (float64, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case err := <-d.done:
		if err != nil {
			return 0, fmt.Errorf("avfstressd exit: %v", err)
		}
	case <-time.After(60 * time.Second):
		d.kill()
		return 0, errors.New("avfstressd did not stop within 60s")
	}
	return maxRSSMB(d.cmd.ProcessState), nil
}

func (d *daemonProc) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// client is the closed-loop job client, with optional per-call spans.
type client struct {
	r    *run
	http *http.Client
	base string
	rec  *Recorder
	root int
}

func newClient(r *run, base string, rec *Recorder, root int) *client {
	return &client{r: r, base: base, rec: rec, root: root,
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: jobTimeout}}
}

// call issues one request, counts it (non-2xx fails) and decodes a JSON
// body into v (or copies a text body into *string).
func (c *client) call(span, method, path string, body []byte, v interface{}) error {
	id := c.rec.Start(span, c.root)
	defer c.rec.End(id)
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.r.tally(false)
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	ok := err == nil && resp.StatusCode/100 == 2
	c.r.tally(ok)
	if !ok {
		return fmt.Errorf("%s %s: %d %s %v", method, path, resp.StatusCode, bytes.TrimSpace(b), err)
	}
	switch v := v.(type) {
	case nil:
	case *string:
		*v = string(b)
	default:
		return json.Unmarshal(b, v)
	}
	return nil
}

// jobRun is one job's client-side record.
type jobRun struct {
	status service.JobStatus
	text   string
	took   float64 // submission until the report was fetched
}

// runJob submits spec, waits for it (one streamed status request that
// ends when the job does), reads its status and fetches its report.
func (c *client) runJob(sp scenario.Spec) (jobRun, error) {
	var jr jobRun
	body, err := json.Marshal(sp)
	if err != nil {
		return jr, err
	}
	t0 := time.Now()
	var st service.JobStatus
	if err := c.call("service.submit", "POST", "/v1/jobs", body, &st); err != nil {
		return jr, err
	}
	var stream string
	if err := c.call("service.wait", "GET", "/v1/jobs/"+st.ID+"?stream=1", nil, &stream); err != nil {
		return jr, err
	}
	if err := c.call("service.status", "GET", "/v1/jobs/"+st.ID, nil, &jr.status); err != nil {
		return jr, err
	}
	if err := c.call("service.results", "GET", "/v1/results/"+st.ID+"?format=text", nil, &jr.text); err != nil {
		return jr, err
	}
	jr.took = time.Since(t0).Seconds()
	c.r.tally(jr.status.Status == service.StatusDone)
	if jr.status.Status != service.StatusDone {
		return jr, fmt.Errorf("job %s ended %s: %s", st.ID, jr.status.Status, jr.status.Error)
	}
	return jr, nil
}

// daemonIter is one daemon iteration's measurements.
type daemonIter struct {
	setups      []float64
	cold, warm  float64
	campaignTPS float64
	rss         float64
	probe       probeResult
	coldJobs    []jobRun
	warmJobs    []jobRun
	health      service.Health
}

// daemonIteration runs start → cold jobs → restart → warm jobs → stop
// on fresh directories under dir.
func (r *run) daemonIteration(dir string, specs []scenario.Spec, rec *Recorder) (*daemonIter, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	it := &daemonIter{}
	root := rec.Start("daemon.iteration", 0)
	defer rec.End(root)

	sp := rec.Start("daemon.start", root)
	d, err := r.startDaemon(dir, true)
	rec.End(sp)
	if err != nil {
		return nil, err
	}
	it.setups = append(it.setups, d.setup)

	stop := make(chan struct{})
	probed := make(chan probeResult, 1)
	prober := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: 30 * time.Second}
	go func() {
		probed <- openLoop(realClock{}, healthzPeriod, stop, func() error {
			resp, err := prober.Get(d.base + "/v1/healthz")
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("healthz %d", resp.StatusCode)
			}
			return nil
		})
	}()
	c := newClient(r, d.base, rec, rec.Start("daemon.cold", root))
	t0 := time.Now()
	var jobErr error
	for _, s := range specs {
		jr, err := c.runJob(s)
		if err != nil {
			jobErr = err
			break
		}
		it.coldJobs = append(it.coldJobs, jr)
	}
	it.cold = time.Since(t0).Seconds()
	rec.End(c.root)
	close(stop)
	it.probe = <-probed
	if jobErr == nil {
		jobErr = c.call("service.healthz", "GET", "/v1/healthz", nil, &it.health)
	}
	rss1, serr := d.stop()
	if err := errors.Join(jobErr, serr); err != nil {
		return nil, err
	}
	if n := len(it.coldJobs); n > 0 {
		last := it.coldJobs[n-1]
		it.campaignTPS = float64(reportTrials(last.text)) / last.took
	}

	sp = rec.Start("daemon.restart", root)
	d, err = r.startDaemon(dir, true)
	rec.End(sp)
	if err != nil {
		return nil, err
	}
	it.setups = append(it.setups, d.setup)
	c = newClient(r, d.base, rec, rec.Start("daemon.warm", root))
	t1 := time.Now()
	for _, s := range specs {
		jr, err := c.runJob(s)
		if err != nil {
			jobErr = err
			break
		}
		it.warmJobs = append(it.warmJobs, jr)
	}
	it.warm = time.Since(t1).Seconds()
	rec.End(c.root)
	rss2, serr := d.stop()
	if err := errors.Join(jobErr, serr); err != nil {
		return nil, err
	}
	it.rss = max(rss1, rss2)
	return it, nil
}

// daemonChecks compares an iteration's reports with the in-process
// renderings of the same specs and cold with warm.
func daemonChecks(it *daemonIter, want []string) []check {
	var out []check
	for i, jr := range it.coldJobs {
		if i < len(want) && fullDigest(jr.text) != want[i] {
			out = append(out, fail("daemon_equals_inprocess", "job %d: digest %s, in-process %s", i, fullDigest(jr.text), want[i]))
		} else {
			out = append(out, pass("daemon_equals_inprocess"))
		}
		if i < len(it.warmJobs) {
			out = append(out, sameText("daemon_warm_equals_cold", jr.text, it.warmJobs[i].text))
		}
	}
	if len(it.coldJobs) != len(want) || len(it.warmJobs) != len(want) {
		out = append(out, fail("daemon_jobs", "%d cold and %d warm jobs done, want %d each", len(it.coldJobs), len(it.warmJobs), len(want)))
	}
	return out
}

// memoryOnlyCold runs specs cold on a daemon without a disk cache or
// journal and returns the time from the first submission to the last
// report fetched, and the reports.
func (r *run) memoryOnlyCold(dir string, specs []scenario.Spec, rec *Recorder) (float64, []jobRun, error) {
	root := rec.Start("daemon.memory_only", 0)
	defer rec.End(root)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, nil, err
	}
	d, err := r.startDaemon(dir, false)
	if err != nil {
		return 0, nil, err
	}
	c := newClient(r, d.base, nil, 0)
	var jobs []jobRun
	t0 := time.Now()
	for _, s := range specs {
		jr, err := c.runJob(s)
		if err != nil {
			d.kill()
			return 0, nil, err
		}
		jobs = append(jobs, jr)
	}
	took := time.Since(t0).Seconds()
	if _, err := d.stop(); err != nil {
		return 0, nil, err
	}
	return took, jobs, nil
}
