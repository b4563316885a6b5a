// Package service is the avfstressd job server: an HTTP surface over
// the experiment scenarios and their concurrent renders. Clients
// submit declarative scenario.Specs (POST /v1/jobs), follow progress
// (GET /v1/jobs/{id}, optionally streamed), fetch rendered reports and
// results (GET /v1/results/{id}) and cancel running work (DELETE
// /v1/jobs/{id}).
//
// All jobs share one content-addressed simulation store (optionally
// disk-backed), so concurrent clients requesting overlapping scenarios
// each pay only the marginal simulations; every job runs against its
// own store view, so per-job cache-effectiveness stats are exact even
// under concurrency. Job execution is bounded by MaxJobs; each job's
// context is cancelled by DELETE or its spec's timeout, and
// cancellation propagates through the renders, every sched.Each
// fan-out and the GA (DESIGN.md §8).
//
// The server is built to survive failure (DESIGN.md §11): submissions
// and terminal outcomes are journalled durably (JournalPath), so a
// crashed or killed daemon resubmits every unfinished job on restart —
// and because all simulation results are memoised content-addressed,
// the recovered report is byte-identical to an uninterrupted run.
// Panicking jobs fail alone (the status carries the stack; the daemon
// keeps serving), a job that outlives the server's JobTimeout fails
// with an error naming the timeout, admission is bounded (429 when the
// queue is full, 503 while draining), duplicate submissions dedup via
// Idempotency-Key, and GET /v1/healthz reports journal/queue/cache
// health.
//
// Besides the registered paper experiments, specs may request the
// parametric scenarios — stressmark, workloads, faultinject (the
// Monte Carlo fault-injection validation, sized by the spec's
// inject_trials field; DESIGN.md §9) and rootcause (the same study's
// per-instruction attribution view; DESIGN.md §14). Fault-injection
// outcomes memoise one table per campaign in the shared store like
// every other result, so a repeated campaign (same program, trials and
// seed) replays nothing, and faultinject/rootcause with equal
// parameters share one study. Campaigns that sample different faults
// share no outcome table (DESIGN.md §10).
package service

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"avfstress/internal/experiments"
	"avfstress/internal/scenario"
	"avfstress/internal/simcache"
)

// Options configures a Server.
type Options struct {
	// CacheDir enables the shared store's disk tier ("" = memory only).
	CacheDir string
	// Scale is the default cache scale-down factor for jobs that do not
	// set one (0 = the experiments default).
	Scale int
	// Parallelism bounds each of a job's CPU fan-outs — GA evaluations,
	// suite simulations, a study's fault-injection campaigns
	// (0 = GOMAXPROCS).
	Parallelism int
	// MaxJobs bounds concurrently *running* jobs; excess submissions
	// queue in order (0 = GOMAXPROCS).
	MaxJobs int
	// MaxHistory bounds retained jobs: when a submission would exceed
	// it, the oldest *terminal* jobs (and their reports) are evicted —
	// a long-running daemon's memory stays bounded, at the cost of old
	// job ids turning 404 (0 = 512).
	MaxHistory int
	// MaxQueue bounds *admitted* (non-terminal) jobs; submissions beyond
	// it are refused with 429 until work drains (0 = 1024).
	MaxQueue int
	// JournalPath enables the durable job journal ("" = no journal): an
	// append-only file of submissions and terminal outcomes. On startup
	// the journal is replayed — terminal jobs come back as history,
	// unfinished jobs are resubmitted — then compacted in place.
	JournalPath string
	// JobTimeout bounds each submitted job's run, from taking a run
	// slot to its report (0 = none). A job that outlives it ends
	// failed — not canceled — with an error naming the timeout.
	JobTimeout time.Duration
	// Logf, when set, receives server-side log lines.
	Logf func(format string, args ...interface{})
}

// Server implements http.Handler. Construct with New.
type Server struct {
	opts    Options
	store   *simcache.Store
	slots   chan struct{}
	mux     *http.ServeMux
	journal *journal
	started time.Time

	mu   sync.Mutex
	jobs map[string]*job
	// order holds the retained jobs in submission order (ascending id
	// number): listing, eviction and compaction walk it, never the ids
	// ever issued.
	order     []*job
	idem      map[string]string // Idempotency-Key -> job id
	seq       int
	draining  bool
	recovered int // unfinished jobs resubmitted from the journal
}

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Terminal reports whether the state is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// job is one submitted request.
type job struct {
	id        string
	spec      scenario.Spec
	scenarios []string
	idemKey   string
	recovered bool // restored or resubmitted from the journal
	cancel    context.CancelFunc
	done      chan struct{}

	mu          sync.Mutex
	status      Status
	lines       []string
	report      string
	reportLost  bool // finished before a restart; report not retained
	errMsg      string
	interrupted bool // daemon stopping: skip the terminal journal record
	stats       simcache.Stats
	created     time.Time
	started     time.Time
	finished    time.Time
}

func (j *job) logf(format string, args ...interface{}) {
	j.mu.Lock()
	j.lines = append(j.lines, fmt.Sprintf(format, args...))
	j.mu.Unlock()
}

// JobStatus is the wire form of a job's state.
type JobStatus struct {
	ID        string        `json:"id"`
	Status    Status        `json:"status"`
	Scenarios []string      `json:"scenarios"`
	Spec      scenario.Spec `json:"spec"`
	Progress  []string      `json:"progress,omitempty"`
	Error     string        `json:"error,omitempty"`
	// Retries is always zero: jobs are not retried. The field stays for
	// clients built against it (perfbench's trace driver sums it).
	Retries   int            `json:"retries,omitempty"`
	Recovered bool           `json:"recovered,omitempty"`
	Stats     simcache.Stats `json:"stats"`
	CreatedAt time.Time      `json:"created_at"`
	StartedAt *time.Time     `json:"started_at,omitempty"`
	EndedAt   *time.Time     `json:"ended_at,omitempty"`
}

// terminal reports whether the job has reached a final state.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status.Terminal()
}

func (j *job) snapshot(progress bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, Status: j.status, Scenarios: j.scenarios, Spec: j.spec,
		Error: j.errMsg, Recovered: j.recovered,
		Stats: j.stats, CreatedAt: j.created,
	}
	if progress {
		st.Progress = append([]string(nil), j.lines...)
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.EndedAt = &t
	}
	return st
}

// New builds a server with its shared simulation store, replaying the
// job journal (if configured) before accepting traffic.
func New(opts Options) (*Server, error) {
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = runtime.GOMAXPROCS(0)
	}
	if opts.MaxHistory <= 0 {
		opts.MaxHistory = 512
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 1024
	}
	s := &Server{
		opts:    opts,
		slots:   make(chan struct{}, opts.MaxJobs),
		jobs:    map[string]*job{},
		idem:    map[string]string{},
		started: time.Now(),
	}
	s.store = simcache.New(simcache.Options{Dir: opts.CacheDir})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/results/{id}", s.handleResults)
	s.mux = mux
	if opts.JournalPath != "" {
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// recover replays the journal: terminal jobs are restored as history
// (their reports were not retained — /v1/results answers 410 Gone),
// unfinished jobs are resubmitted with their original ids. The journal
// is then compacted to exactly the retained history before the resumed
// jobs start running.
func (s *Server) recover() error {
	jl, recs, err := openJournal(s.opts.JournalPath)
	if err != nil {
		return err
	}
	s.journal = jl

	type replay struct {
		spec             scenario.Spec
		idem             string
		status           Status
		errMsg           string
		subTime, endTime time.Time
	}
	var order []string
	state := map[string]*replay{}
	for _, rec := range recs {
		switch rec.Op { // legacy lease/steal records match no case
		case journalOpSubmit:
			if rec.Spec == nil {
				continue
			}
			if _, ok := state[rec.ID]; !ok {
				order = append(order, rec.ID)
			}
			state[rec.ID] = &replay{spec: *rec.Spec, idem: rec.IdemKey, subTime: rec.Time}
		case journalOpEnd:
			if st, ok := state[rec.ID]; ok && rec.Status.Terminal() {
				st.status, st.errMsg, st.endTime = rec.Status, rec.Error, rec.Time
			}
		}
	}

	type resume struct {
		ctx context.Context
		j   *job
	}
	var resumes []resume
	closed := make(chan struct{})
	close(closed)
	for _, id := range order {
		n, ok := jobSeq(id)
		if !ok {
			continue
		}
		if n > s.seq {
			s.seq = n
		}
		st := state[id]
		names, rerr := experiments.ResolveSpec(st.spec)
		j := &job{
			id: id, spec: st.spec, scenarios: names, idemKey: st.idem,
			recovered: true, created: st.subTime,
		}
		switch {
		case st.status.Terminal():
			j.status = st.status
			j.errMsg = st.errMsg
			j.finished = st.endTime
			j.reportLost = st.status == StatusDone
			j.cancel = func() {}
			j.done = closed
		case rerr != nil:
			// The journalled spec no longer resolves (a scenario was
			// renamed or removed):
			// terminal failure, not a crash loop.
			j.status = StatusFailed
			j.errMsg = rerr.Error()
			j.finished = time.Now()
			j.cancel = func() {}
			j.done = closed
		default:
			ctx, cancel := jobContext(st.spec)
			j.status = StatusQueued
			j.cancel = cancel
			j.done = make(chan struct{})
			resumes = append(resumes, resume{ctx, j})
			s.recovered++
		}
		s.jobs[id] = j
		s.order = append(s.order, j)
		if st.idem != "" {
			s.idem[st.idem] = id
		}
	}
	// Concurrent submissions can reach the journal out of id order.
	slices.SortFunc(s.order, func(a, b *job) int {
		na, _ := jobSeq(a.id)
		nb, _ := jobSeq(b.id)
		return cmp.Compare(na, nb)
	})
	s.evictLocked()
	if err := s.journal.rewrite(s.compactRecordsLocked()); err != nil {
		return err
	}
	for _, r := range resumes {
		s.logf("resubmitting %s from the journal: %v", r.j.id, r.j.scenarios)
		go s.run(r.ctx, r.j)
	}
	return nil
}

// compactRecordsLocked renders the retained job history as journal
// records. Non-terminal jobs get only their submit record, so a crash
// before they finish resubmits them again.
func (s *Server) compactRecordsLocked() []journalRecord {
	var recs []journalRecord
	for _, j := range s.order {
		j.mu.Lock()
		status, errMsg, finished := j.status, j.errMsg, j.finished
		j.mu.Unlock()
		spec := j.spec
		recs = append(recs, journalRecord{
			Op: journalOpSubmit, ID: j.id, Spec: &spec, IdemKey: j.idemKey, Time: j.created,
		})
		if status.Terminal() {
			recs = append(recs, journalRecord{
				Op: journalOpEnd, ID: j.id, Status: status, Error: errMsg, Time: finished,
			})
		}
	}
	return recs
}

// jobSeq parses a canonical job id ("job-N").
func jobSeq(id string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil || n < 1 || fmt.Sprintf("job-%d", n) != id {
		return 0, false
	}
	return n, true
}

// jobContext derives a job's root context from its spec.
func jobContext(spec scenario.Spec) (context.Context, context.CancelFunc) {
	if spec.TimeoutSec > 0 {
		return context.WithTimeout(context.Background(), time.Duration(spec.TimeoutSec)*time.Second)
	}
	return context.WithCancel(context.Background())
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Recovered reports how many unfinished jobs the journal resubmitted.
func (s *Server) Recovered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Drain gracefully stops the server: new submissions are refused with
// 503, running jobs keep going until they finish or ctx expires, and
// any job still running at the deadline is cancelled *without* a
// terminal journal record — a restarted daemon resubmits it. The
// journal is closed either way.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	var pending []*job
	for _, j := range s.jobs {
		if !j.terminal() {
			pending = append(pending, j)
		}
	}
	s.mu.Unlock()
	defer s.journal.close()

	var interrupted []*job
	for _, j := range pending {
		select {
		case <-j.done:
		case <-ctx.Done():
			interrupted = append(interrupted, j)
		}
	}
	if len(interrupted) == 0 {
		return nil
	}
	for _, j := range interrupted {
		j.mu.Lock()
		j.interrupted = true
		j.mu.Unlock()
		j.cancel()
	}
	// Cancellation propagates through every fan-out promptly; the grace
	// timer only guards against a wedged job.
	grace := time.After(10 * time.Second)
	for _, j := range interrupted {
		select {
		case <-j.done:
		case <-grace:
			return fmt.Errorf("service: %s did not stop within the drain grace period", j.id)
		}
	}
	return ctx.Err()
}

// Shutdown stops the server immediately: every non-terminal job is
// cancelled and waited for (bounded by ctx), without journalling
// terminal states — like a crash, a restarted daemon resubmits them.
// Use Drain for a graceful stop that lets running jobs finish.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	var pending []*job
	for _, j := range s.jobs {
		pending = append(pending, j)
	}
	s.mu.Unlock()
	defer s.journal.close()
	for _, j := range pending {
		j.mu.Lock()
		j.interrupted = true
		j.mu.Unlock()
		j.cancel()
	}
	for _, j := range pending {
		select {
		case <-j.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleSubmit validates the spec, registers the job and starts it in
// the background (queueing behind MaxJobs running jobs). An
// Idempotency-Key header dedups retried submissions: a key already
// bound to a retained job returns that job (200) instead of a new one.
// Admission is bounded: 503 while draining, 429 when MaxQueue jobs are
// already admitted and unfinished.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec scenario.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	// The body is one JSON value: anything after the spec but whitespace
	// is refused, never silently dropped.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		httpError(w, http.StatusBadRequest, "bad spec: data after the JSON value")
		return
	}
	if r.Context().Err() != nil {
		return // client gone; nothing to admit
	}
	names, err := experiments.ResolveSpec(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	idemKey := r.Header.Get("Idempotency-Key")
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusServiceUnavailable, "server is draining; resubmit to its successor")
		return
	}
	if idemKey != "" {
		if j, ok := s.jobs[s.idem[idemKey]]; ok {
			s.mu.Unlock()
			w.Header().Set("Idempotency-Replayed", "true")
			writeJSON(w, http.StatusOK, j.snapshot(false))
			return
		}
	}
	if pending := s.pendingLocked(); pending >= s.opts.MaxQueue {
		s.mu.Unlock()
		w.Header().Set("Retry-After", "5")
		httpError(w, http.StatusTooManyRequests,
			"queue full: %d unfinished jobs (max %d); retry once work drains", pending, s.opts.MaxQueue)
		return
	}
	ctx, cancel := jobContext(spec)
	s.seq++
	j := &job{
		id: fmt.Sprintf("job-%d", s.seq), spec: spec, scenarios: names, idemKey: idemKey,
		cancel: cancel, done: make(chan struct{}),
		status: StatusQueued, created: time.Now(),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	if idemKey != "" {
		s.idem[idemKey] = j.id
	}
	s.evictLocked()
	s.mu.Unlock()
	if err := s.journal.append(journalRecord{
		Op: journalOpSubmit, ID: j.id, Spec: &spec, IdemKey: idemKey, Time: j.created,
	}); err != nil {
		s.logf("journal: %v", err)
	}
	s.logf("submitted %s: %v", j.id, names)
	go s.run(ctx, j)
	writeJSON(w, http.StatusAccepted, j.snapshot(false))
}

// pendingLocked counts admitted, unfinished jobs. Caller holds s.mu.
func (s *Server) pendingLocked() int {
	n := 0
	for _, j := range s.order {
		if !j.terminal() {
			n++
		}
	}
	return n
}

// evictLocked drops the oldest terminal jobs until at most MaxHistory
// remain, keeping the daemon's memory bounded. Non-terminal jobs are
// never evicted. Caller holds s.mu.
func (s *Server) evictLocked() {
	excess := len(s.order) - s.opts.MaxHistory
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, j := range s.order {
		if excess > 0 && j.terminal() {
			delete(s.jobs, j.id)
			if j.idemKey != "" && s.idem[j.idemKey] == j.id {
				delete(s.idem, j.idemKey)
			}
			excess--
			continue
		}
		kept = append(kept, j)
	}
	clear(s.order[len(kept):])
	s.order = kept
}

// testRunJob, when non-nil, replaces a job's experiment execution —
// the test seam for injecting panicking, slow or failing work.
var testRunJob func(ctx context.Context, j *job) (string, error)

// run executes one job against a fresh experiments context sharing the
// server's store through a per-job view, under the server's JobTimeout.
// A panic anywhere in the job (contained per item by sched.Each) fails
// only this job.
func (s *Server) run(ctx context.Context, j *job) {
	defer close(j.done)
	defer j.cancel()

	// Take a run slot; a cancellation while queued resolves immediately.
	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	case <-ctx.Done():
		s.finishJob(j, "", ctx.Err(), simcache.Stats{})
		return
	}

	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()

	// A job that outlives JobTimeout gets the timeout as its error rather
	// than the bare context.DeadlineExceeded, so it ends failed, not
	// canceled.
	timeout := fmt.Errorf("service: job exceeded the %v job timeout", s.opts.JobTimeout)
	if s.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, s.opts.JobTimeout, timeout)
		defer cancel()
	}
	view := s.store.View()
	base := experiments.Options{
		Scale:       s.opts.Scale,
		Parallelism: s.opts.Parallelism,
		Cache:       view,
		Logf:        j.logf,
	}
	var report string
	var err error
	if testRunJob != nil {
		report, err = testRunJob(ctx, j)
	} else {
		var c *experiments.Context
		var names []string
		c, names, err = experiments.NewSpecContext(j.spec, base)
		if err == nil {
			report, err = c.RunScenarios(ctx, names)
		}
	}
	if err != nil && context.Cause(ctx) == timeout {
		err = timeout
	}
	s.finishJob(j, report, err, view.LocalStats())
	s.logf("%s finished: %s (cache %s)", j.id, j.snapshot(false).Status, view.LocalStats())
}

// finishJob records the terminal state and journals it — unless the
// daemon itself is stopping the job (drain deadline, shutdown), in
// which case the journal keeps only the submission so a restarted
// daemon resubmits the job.
func (s *Server) finishJob(j *job, report string, err error, stats simcache.Stats) {
	j.finish(report, err, stats)
	j.mu.Lock()
	interrupted, status, errMsg, finished := j.interrupted, j.status, j.errMsg, j.finished
	j.mu.Unlock()
	if interrupted {
		return
	}
	if jerr := s.journal.append(journalRecord{
		Op: journalOpEnd, ID: j.id, Status: status, Error: errMsg, Time: finished,
	}); jerr != nil {
		s.logf("journal: %v", jerr)
	}
}

func (j *job) finish(report string, err error, stats simcache.Stats) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	j.stats = stats
	switch {
	case err == nil:
		j.status = StatusDone
		j.report = report
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		j.status = StatusCanceled
		j.errMsg = err.Error()
	default:
		j.status = StatusFailed
		j.errMsg = err.Error()
	}
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
	}
	return j
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ordered := slices.Clone(s.order)
	s.mu.Unlock()
	jobs := make([]JobStatus, len(ordered))
	for i, j := range ordered {
		jobs[i] = j.snapshot(false)
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"jobs":  jobs,
		"stats": s.store.Stats(),
	})
}

// Health is the GET /v1/healthz payload.
type Health struct {
	Status    string         `json:"status"` // "ok" | "degraded" | "draining"
	UptimeSec int64          `json:"uptime_sec"`
	Jobs      map[Status]int `json:"jobs"`
	Queue     QueueHealth    `json:"queue"`
	Journal   *JournalHealth `json:"journal,omitempty"`
	Cache     simcache.Stats `json:"cache"`
}

// QueueHealth reports admission-bound occupancy.
type QueueHealth struct {
	Pending  int `json:"pending"` // admitted, unfinished jobs
	Capacity int `json:"capacity"`
}

// JournalHealth reports the durable journal's counters. AppendErrors
// or CorruptLines above zero mean the daemon is serving with reduced
// durability ("degraded").
type JournalHealth struct {
	Path         string `json:"path"`
	Records      int64  `json:"records"`
	CorruptLines int64  `json:"corrupt_lines"`
	AppendErrors int64  `json:"append_errors"`
	Recovered    int    `json:"recovered_jobs"`
}

// handleHealthz reports liveness plus journal/queue/cache health. It
// answers 200 whenever the daemon can serve — job failures (panics
// included) never poison it; degraded durability shows in the body.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	h := Health{
		Status:    "ok",
		UptimeSec: int64(time.Since(s.started).Seconds()),
		Jobs:      map[Status]int{},
		Queue:     QueueHealth{Pending: s.pendingLocked(), Capacity: s.opts.MaxQueue},
	}
	for _, j := range s.jobs {
		j.mu.Lock()
		h.Jobs[j.status]++
		j.mu.Unlock()
	}
	if s.draining {
		h.Status = "draining"
	}
	recoveredJobs := s.recovered
	s.mu.Unlock()
	if s.journal != nil {
		records, corrupt, appendErrs := s.journal.health()
		h.Journal = &JournalHealth{
			Path: s.opts.JournalPath, Records: records,
			CorruptLines: corrupt, AppendErrors: appendErrs,
			Recovered: recoveredJobs,
		}
		if h.Status == "ok" && (corrupt > 0 || appendErrs > 0) {
			h.Status = "degraded"
		}
	}
	h.Cache = s.store.Stats()
	writeJSON(w, http.StatusOK, h)
}

// handleStatus reports a job; with ?stream=1 it streams progress lines
// as plain text until the job reaches a terminal state.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if r.URL.Query().Get("stream") == "" {
		writeJSON(w, http.StatusOK, j.snapshot(true))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	sent := 0
	for {
		j.mu.Lock()
		lines := j.lines[sent:]
		sent = len(j.lines)
		status := j.status
		errMsg := j.errMsg
		j.mu.Unlock()
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
		if len(lines) > 0 && flusher != nil {
			flusher.Flush()
		}
		if status.Terminal() {
			fmt.Fprintf(w, "status: %s", status)
			if errMsg != "" {
				fmt.Fprintf(w, " (%s)", errMsg)
			}
			fmt.Fprintln(w)
			return
		}
		select {
		case <-j.done:
			// Loop once more to drain the final lines.
		case <-r.Context().Done():
			return
		case <-time.After(150 * time.Millisecond):
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.cancel()
	writeJSON(w, http.StatusAccepted, j.snapshot(false))
}

// handleResults returns the rendered report and result stats of a
// finished job: JSON by default, the raw report text with ?format=text.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	status, report, reportLost := j.status, j.report, j.reportLost
	j.mu.Unlock()
	if !status.Terminal() {
		httpError(w, http.StatusConflict, "job %s is %s; results are available once it finishes", j.id, status)
		return
	}
	if status == StatusDone && reportLost {
		httpError(w, http.StatusGone,
			"job %s finished before a daemon restart and its report was not retained; resubmit the spec — results are memoised, so the re-run is warm", j.id)
		return
	}
	if status != StatusDone {
		st := j.snapshot(false)
		httpError(w, http.StatusGone, "job %s %s: %s", j.id, st.Status, st.Error)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, report)
		return
	}
	st := j.snapshot(false)
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"id":       j.id,
		"status":   st.Status,
		"stats":    st.Stats,
		"report":   report,
		"ended_at": st.EndedAt,
	})
}
