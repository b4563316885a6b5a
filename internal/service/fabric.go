package service

// The federated campaign fabric, coordinator side (DESIGN.md §13).
//
// The fabric never ships closures: every node — the coordinator and
// each joined runner — derives the same job DAG from the same spec and
// runs it. What the coordinator arbitrates is *claims*: exactly one
// live node wins the right to execute each leased sched job (fault
// replay slices) and each simcache compute (golden runs, workload
// simulations, GA evaluations), publishes the outcome through the
// coordinator's content-addressed store, and releases the claim; the
// losers wait and then proceed warm. Work stealing falls out of
// liveness: a runner that misses heartbeats for the lease TTL is
// declared dead, its claims are freed, and the next waiter's
// re-acquire wins them. Byte-determinism is by construction — the
// coordinator's report is rendered by its own DAG execution over
// content-addressed results, so sharding, stealing and runner loss can
// only change *where* a result was computed, never its bytes.
//
// Wire protocol (all request/response bodies are CRC-framed JSON via
// internal/persist; cache entry bodies are the raw framed entries the
// disk tier uses):
//
//	POST /v1/fabric/join       {name, workers} → {runner, heartbeat_ms, lease_ttl_ms, scale, parallelism}
//	POST /v1/fabric/heartbeat  {runner}        → {runs: [{id, spec}]}     (410: rejoin)
//	POST /v1/fabric/claim      {runner, kind, key, wait_ms} → {state}     (granted | wait | done)
//	POST /v1/fabric/release    {runner, kind, key, ok}      → {}
//	GET  /v1/cache/{kind}/{key}  → framed entry (404: miss)
//	PUT  /v1/cache/{kind}/{key}  ← framed entry (validated on receipt)

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"avfstress/internal/persist"
	"avfstress/internal/scenario"
	"avfstress/internal/sched"
	"avfstress/internal/simcache"
)

// Fabric defaults: runners heartbeat at heartbeatDefault and a runner
// silent for leaseTTLDefault forfeits its claims.
const (
	heartbeatDefault = 500 * time.Millisecond
	leaseTTLDefault  = 5 * time.Second
	// doneKeyCap bounds the completed-claim memory (FIFO eviction). An
	// evicted key can be claimed again; the new owner then finds every
	// underlying entry warm, so eviction costs a warm re-assembly at
	// worst.
	doneKeyCap = 8192
	// claimPollMax caps one server-side claim long-poll; clients loop.
	claimPollMax = 25 * time.Second
)

// Claim states on the wire.
const (
	claimGranted = "granted"
	claimWait    = "wait"
	claimDone    = "done"
)

// Claim kinds: job claims arbitrate leased sched jobs, result/blob
// claims arbitrate simcache computes (simcache.KindResult/KindBlob).
const kindJob = "job"

// errUnknownRunner means the caller's runner id is not registered (or
// was declared dead); the HTTP layer maps it to 410 Gone and the
// runner rejoins.
var errUnknownRunner = errors.New("service: unknown or expired runner")

// fabricRunner is one joined runner daemon.
type fabricRunner struct {
	id       string
	name     string
	workers  int
	lastSeen time.Time
	dead     bool
}

// fabricClaim is one live claim. ch closes when the claim resolves
// (released by its owner, or freed by its owner's death).
type fabricClaim struct {
	key   string
	kind  string
	owner string // runner id; "" is the coordinator itself
	ch    chan struct{}
}

// runAnnouncement tells runners which specs to execute.
type runAnnouncement struct {
	ID   string        `json:"id"`
	Spec scenario.Spec `json:"spec"`
}

// fabric is the coordinator's cluster state: runner registry, claim
// table, run announcements and counters.
type fabric struct {
	hb   time.Duration
	ttl  time.Duration
	logf func(format string, args ...interface{})
	// journalAppend, when set, durably records job-lease grants and
	// steals (it is called outside the fabric mutex — appends fsync).
	journalAppend func(rec journalRecord)

	mu       sync.Mutex
	seq      int
	runners  map[string]*fabricRunner
	claims   map[string]*fabricClaim
	done     map[string]struct{}
	doneFIFO []string
	runs     map[string]scenario.Spec
	runOrder []string

	leased      int64 // job claims granted to runners (cumulative)
	stolen      int64 // job claims freed by runner death
	remoteGets  int64 // cache fetches served to runners
	remoteHits  int64
	priorLeases int // lease grants journalled by a previous process life
}

func newFabric(hb, ttl time.Duration, logf func(string, ...interface{})) *fabric {
	if hb <= 0 {
		hb = heartbeatDefault
	}
	if ttl <= 0 {
		ttl = leaseTTLDefault
	}
	if ttl < 2*hb {
		ttl = 2 * hb // a single delayed beat must not look like death
	}
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	return &fabric{
		hb: hb, ttl: ttl, logf: logf,
		runners: map[string]*fabricRunner{},
		claims:  map[string]*fabricClaim{},
		done:    map[string]struct{}{},
		runs:    map[string]scenario.Spec{},
	}
}

// claimKey namespaces claims by kind so a job key can never collide
// with a cache address.
func claimKey(kind, key string) string { return kind + "\x00" + key }

// shortKey renders a claim key for logs and journal records (raw keys
// embed fingerprint blobs).
func shortKey(key string) string { return fmt.Sprintf("%.16x", sha256.Sum256([]byte(key))) }

// sweepLocked declares runners dead after ttl of silence and frees
// their claims — the work-stealing half of the protocol. It returns
// the journal records to append once the lock is dropped.
func (f *fabric) sweepLocked(now time.Time) []journalRecord {
	var recs []journalRecord
	for id, r := range f.runners {
		if r.dead || now.Sub(r.lastSeen) <= f.ttl {
			continue
		}
		r.dead = true
		freed := 0
		for key, c := range f.claims {
			if c.owner != id {
				continue
			}
			delete(f.claims, key)
			close(c.ch)
			freed++
			if c.kind == kindJob {
				f.stolen++
				recs = append(recs, journalRecord{
					Op: journalOpSteal, ID: id, Key: shortKey(c.key), Time: now,
				})
			}
		}
		f.logf("fabric: runner %s (%s) lost after %v silence; %d claims freed for stealing",
			id, r.name, f.ttl, freed)
	}
	return recs
}

func (f *fabric) appendAll(recs []journalRecord) {
	if f.journalAppend == nil {
		return
	}
	for _, rec := range recs {
		f.journalAppend(rec)
	}
}

// join registers a runner and returns its id.
func (f *fabric) join(name string, workers int) string {
	f.mu.Lock()
	f.seq++
	id := fmt.Sprintf("runner-%d", f.seq)
	f.runners[id] = &fabricRunner{id: id, name: name, workers: workers, lastSeen: time.Now()}
	f.mu.Unlock()
	f.logf("fabric: runner %s (%s, %d workers) joined", id, name, workers)
	return id
}

// heartbeat refreshes a runner's liveness and returns the active runs.
func (f *fabric) heartbeat(id string) ([]runAnnouncement, error) {
	now := time.Now()
	f.mu.Lock()
	recs := f.sweepLocked(now)
	r := f.runners[id]
	if r == nil || r.dead {
		f.mu.Unlock()
		f.appendAll(recs)
		return nil, errUnknownRunner
	}
	r.lastSeen = now
	runs := make([]runAnnouncement, 0, len(f.runOrder))
	for _, rid := range f.runOrder {
		runs = append(runs, runAnnouncement{ID: rid, Spec: f.runs[rid]})
	}
	f.mu.Unlock()
	f.appendAll(recs)
	return runs, nil
}

// announce publishes a job's spec to the runners for the duration of
// its execution; withdraw removes it (runners cancel on the next
// heartbeat).
func (f *fabric) announce(id string, spec scenario.Spec) {
	f.mu.Lock()
	if _, ok := f.runs[id]; !ok {
		f.runOrder = append(f.runOrder, id)
	}
	f.runs[id] = spec
	f.mu.Unlock()
}

func (f *fabric) withdraw(id string) {
	f.mu.Lock()
	delete(f.runs, id)
	for i, rid := range f.runOrder {
		if rid == id {
			f.runOrder = append(f.runOrder[:i], f.runOrder[i+1:]...)
			break
		}
	}
	f.mu.Unlock()
}

// tryAcquire attempts to claim (kind, key) for owner ("" = the
// coordinator). It returns the wire state and, for claimWait, the
// channel that closes when the blocking claim resolves.
func (f *fabric) tryAcquire(owner, kind, key string) (string, <-chan struct{}, error) {
	ck := claimKey(kind, key)
	now := time.Now()
	f.mu.Lock()
	recs := f.sweepLocked(now)
	if owner != "" {
		r := f.runners[owner]
		if r == nil || r.dead {
			f.mu.Unlock()
			f.appendAll(recs)
			return "", nil, errUnknownRunner
		}
		r.lastSeen = now
	}
	if _, ok := f.done[ck]; ok {
		f.mu.Unlock()
		f.appendAll(recs)
		return claimDone, nil, nil
	}
	if c := f.claims[ck]; c != nil {
		if c.owner == owner {
			// Idempotent re-claim (a retried request whose response was
			// lost still owns its claim).
			f.mu.Unlock()
			f.appendAll(recs)
			return claimGranted, nil, nil
		}
		ch := c.ch
		f.mu.Unlock()
		f.appendAll(recs)
		return claimWait, ch, nil
	}
	f.claims[ck] = &fabricClaim{key: ck, kind: kind, owner: owner, ch: make(chan struct{})}
	if owner != "" && kind == kindJob {
		f.leased++
		recs = append(recs, journalRecord{
			Op: journalOpLease, ID: owner, Key: shortKey(ck), Time: now,
		})
	}
	f.mu.Unlock()
	f.appendAll(recs)
	return claimGranted, nil, nil
}

// markDoneLocked records a completed claim, FIFO-bounded.
func (f *fabric) markDoneLocked(ck string) {
	if _, ok := f.done[ck]; ok {
		return
	}
	f.done[ck] = struct{}{}
	f.doneFIFO = append(f.doneFIFO, ck)
	if len(f.doneFIFO) > doneKeyCap {
		delete(f.done, f.doneFIFO[0])
		f.doneFIFO = f.doneFIFO[1:]
	}
}

// release resolves a claim owner holds. ok records completion so later
// claimers see claimDone; a failed release just frees the claim for
// the next taker. A release for a claim owner no longer holds (stolen
// meanwhile) is a no-op.
func (f *fabric) release(owner, kind, key string, ok bool) {
	ck := claimKey(kind, key)
	f.mu.Lock()
	c := f.claims[ck]
	if c == nil || c.owner != owner {
		f.mu.Unlock()
		return
	}
	delete(f.claims, ck)
	if ok {
		f.markDoneLocked(ck)
	}
	close(c.ch)
	f.mu.Unlock()
}

// await blocks until the claim on (kind, key) resolves or timeout
// elapses, then re-attempts acquisition — the taking-over half of work
// stealing. It returns claimWait on timeout (the caller loops). Waits
// wake at lease-TTL granularity even if the claim channel never
// resolves: sweeping only happens inside tryAcquire, and a dead
// owner's channel closes only when a sweep frees its claims.
func (f *fabric) await(ctx context.Context, owner, kind, key string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, ch, err := f.tryAcquire(owner, kind, key)
		if err != nil || st != claimWait {
			return st, err
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return claimWait, nil
		}
		wake := remain
		if wake > f.ttl {
			wake = f.ttl
		}
		t := time.NewTimer(wake)
		select {
		case <-ch:
			t.Stop() // resolved or stolen: re-check
		case <-t.C:
			// TTL tick: loop so the re-acquire sweeps dead owners.
		case <-ctx.Done():
			t.Stop()
			return claimWait, ctx.Err()
		}
	}
}

// ClusterHealth is the cluster section of GET /v1/healthz.
type ClusterHealth struct {
	// ConnectedRunners counts runners inside their lease TTL.
	ConnectedRunners int `json:"connected_runners"`
	// LeasedJobs is the cumulative count of job claims granted to
	// runners; ActiveLeases of those currently held; StolenJobs of
	// claims freed by a runner missing heartbeats.
	LeasedJobs   int64 `json:"leased_jobs"`
	ActiveLeases int   `json:"active_leases"`
	StolenJobs   int64 `json:"stolen_jobs"`
	// RunnerLeases maps each live runner's name to the job leases it
	// holds right now — the per-runner view that tells an operator (or
	// the cluster smoke) whether a specific runner is mid-job.
	RunnerLeases map[string]int `json:"runner_leases,omitempty"`
	// RemoteGets/RemoteHits count cache fetches runners issued against
	// the coordinator store and how many were served; RemoteHitRate is
	// their ratio (0 when no fetches yet).
	RemoteGets    int64   `json:"remote_gets"`
	RemoteHits    int64   `json:"remote_hits"`
	RemoteHitRate float64 `json:"remote_hit_rate"`
	// InterruptedLeases counts job-lease grants journalled by a
	// previous process life; their outcomes are unknown, and recovered
	// jobs re-arbitrate the work (results already published survive in
	// the cache).
	InterruptedLeases int `json:"interrupted_leases,omitempty"`
}

// clusterHealth snapshots the fabric for /v1/healthz. Cluster state
// never degrades the daemon's health status: a lost runner is a
// capacity event, not a fault — its work is re-arbitrated.
func (f *fabric) clusterHealth() *ClusterHealth {
	f.mu.Lock()
	recs := f.sweepLocked(time.Now())
	h := &ClusterHealth{
		LeasedJobs:        f.leased,
		StolenJobs:        f.stolen,
		RemoteGets:        f.remoteGets,
		RemoteHits:        f.remoteHits,
		InterruptedLeases: f.priorLeases,
	}
	names := make(map[string]string, len(f.runners))
	for id, r := range f.runners {
		if !r.dead {
			h.ConnectedRunners++
			names[id] = r.name
		}
	}
	if len(names) > 0 {
		h.RunnerLeases = make(map[string]int, len(names))
		for _, n := range names {
			if _, ok := h.RunnerLeases[n]; !ok {
				h.RunnerLeases[n] = 0
			}
		}
	}
	for _, c := range f.claims {
		if c.kind == kindJob && c.owner != "" {
			h.ActiveLeases++
			if n, ok := names[c.owner]; ok {
				h.RunnerLeases[n]++
			}
		}
	}
	f.mu.Unlock()
	f.appendAll(recs)
	if h.RemoteGets > 0 {
		h.RemoteHitRate = float64(h.RemoteHits) / float64(h.RemoteGets)
	}
	return h
}

// --- coordinator-side adapters -----------------------------------------

// coordExecutor adapts the claim table to sched.Executor for the
// coordinator's own scheduler runs.
type coordExecutor struct{ f *fabric }

func stateOf(st string) sched.ClaimState {
	switch st {
	case claimDone:
		return sched.ClaimDone
	case claimWait:
		return sched.ClaimWait
	default:
		return sched.ClaimOwn
	}
}

func (e coordExecutor) TryAcquire(key string) (sched.ClaimState, error) {
	st, _, err := e.f.tryAcquire("", kindJob, key)
	return stateOf(st), err
}

func (e coordExecutor) Await(ctx context.Context, key string) (sched.ClaimState, error) {
	for {
		// Bounded waits so the periodic re-acquire sweeps dead runners
		// even when nothing else touches the fabric.
		st, err := e.f.await(ctx, "", kindJob, key, e.f.ttl)
		if err != nil {
			return sched.ClaimWait, err
		}
		if st != claimWait {
			return stateOf(st), nil
		}
		if err := ctx.Err(); err != nil {
			return sched.ClaimWait, err
		}
	}
}

func (e coordExecutor) Release(key string, err error) {
	e.f.release("", kindJob, key, err == nil)
}

// coordRemote adapts the claim table to simcache.RemoteTier for the
// coordinator's store. Get and Put are no-ops: the coordinator's store
// IS the authoritative tier (runners push entries into it over HTTP),
// so only the claim arbitration crosses this adapter.
type coordRemote struct{ f *fabric }

func (t coordRemote) Get(kind string, key simcache.Key) ([]byte, bool) { return nil, false }
func (t coordRemote) Put(kind string, key simcache.Key, framed []byte) {}

func (t coordRemote) Acquire(kind string, key simcache.Key) bool {
	for {
		st, ch, err := t.f.tryAcquire("", kind, key.Hex())
		if err != nil {
			return true // arbitration unavailable: compute locally
		}
		switch st {
		case claimGranted:
			return true
		case claimDone:
			return false
		}
		select {
		case <-ch:
		case <-time.After(t.f.ttl):
			// Re-check: the owner may be a dead runner whose claims only
			// a sweep can free.
		}
	}
}

func (t coordRemote) Release(kind string, key simcache.Key, ok bool) {
	t.f.release("", kind, key.Hex(), ok)
}

// --- HTTP surface -------------------------------------------------------

// Wire bodies. All fabric endpoints exchange CRC-framed JSON.
type joinRequest struct {
	Name    string `json:"name"`
	Workers int    `json:"workers"`
}

type joinResponse struct {
	Runner      string `json:"runner"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
	LeaseTTLMS  int64  `json:"lease_ttl_ms"`
	Scale       int    `json:"scale"`
	Parallelism int    `json:"parallelism"`
}

type heartbeatRequest struct {
	Runner string `json:"runner"`
}

type heartbeatResponse struct {
	Runs []runAnnouncement `json:"runs"`
}

type claimRequest struct {
	Runner string `json:"runner"`
	Kind   string `json:"kind"`
	Key    string `json:"key"`
	WaitMS int64  `json:"wait_ms"`
}

type claimResponse struct {
	State string `json:"state"`
}

type releaseRequest struct {
	Runner string `json:"runner"`
	Kind   string `json:"kind"`
	Key    string `json:"key"`
	OK     bool   `json:"ok"`
}

// readFramedJSON decodes a CRC-framed JSON request body; a frame or
// decode failure is the caller's 400.
func readFramedJSON(r *http.Request, v interface{}) error {
	body, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
	if err != nil {
		return err
	}
	payload, err := persist.DecodeFramed(body)
	if err != nil {
		return err
	}
	return json.Unmarshal(payload, v)
}

func writeFramedJSON(w http.ResponseWriter, code int, v interface{}) {
	payload, err := json.Marshal(v)
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(code)
	w.Write(persist.EncodeFramed(payload))
}

func validClaimKind(kind string) bool {
	return kind == kindJob || kind == simcache.KindResult || kind == simcache.KindBlob
}

func (s *Server) handleFabricJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := readFramedJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad join body: %v", err)
		return
	}
	id := s.fabric.join(req.Name, req.Workers)
	writeFramedJSON(w, http.StatusOK, joinResponse{
		Runner:      id,
		HeartbeatMS: s.fabric.hb.Milliseconds(),
		LeaseTTLMS:  s.fabric.ttl.Milliseconds(),
		Scale:       s.opts.Scale,
		Parallelism: s.opts.Parallelism,
	})
}

func (s *Server) handleFabricHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := readFramedJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad heartbeat body: %v", err)
		return
	}
	runs, err := s.fabric.heartbeat(req.Runner)
	if err != nil {
		httpError(w, http.StatusGone, "%v", err)
		return
	}
	writeFramedJSON(w, http.StatusOK, heartbeatResponse{Runs: runs})
}

func (s *Server) handleFabricClaim(w http.ResponseWriter, r *http.Request) {
	var req claimRequest
	if err := readFramedJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad claim body: %v", err)
		return
	}
	if req.Runner == "" || req.Key == "" || !validClaimKind(req.Kind) {
		httpError(w, http.StatusBadRequest, "claim needs runner, key and a valid kind")
		return
	}
	var (
		st  string
		err error
	)
	if wait := time.Duration(req.WaitMS) * time.Millisecond; wait > 0 {
		if wait > claimPollMax {
			wait = claimPollMax
		}
		st, err = s.fabric.await(r.Context(), req.Runner, req.Kind, req.Key, wait)
	} else {
		st, _, err = s.fabric.tryAcquire(req.Runner, req.Kind, req.Key)
	}
	switch {
	case errors.Is(err, errUnknownRunner):
		httpError(w, http.StatusGone, "%v", err)
	case err != nil:
		// Client went away mid-poll; nothing useful to write.
		httpError(w, http.StatusBadRequest, "%v", err)
	default:
		writeFramedJSON(w, http.StatusOK, claimResponse{State: st})
	}
}

func (s *Server) handleFabricRelease(w http.ResponseWriter, r *http.Request) {
	var req releaseRequest
	if err := readFramedJSON(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad release body: %v", err)
		return
	}
	if !validClaimKind(req.Kind) {
		httpError(w, http.StatusBadRequest, "invalid release kind %q", req.Kind)
		return
	}
	s.fabric.release(req.Runner, req.Kind, req.Key, req.OK)
	writeFramedJSON(w, http.StatusOK, struct{}{})
}

// handleCacheGet serves one framed entry from the coordinator store.
// The response body is exactly the wire form the disk tier uses, so
// the receiving runner applies the same frame-on-receipt validation.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	kind := r.PathValue("kind")
	key, err := simcache.ParseKey(r.PathValue("key"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var framed []byte
	var ok bool
	switch kind {
	case simcache.KindResult:
		framed, ok = s.store.ExportResult(key)
	case simcache.KindBlob:
		framed, ok = s.store.ExportBlob(key)
	default:
		httpError(w, http.StatusBadRequest, "unknown cache kind %q", kind)
		return
	}
	s.fabric.mu.Lock()
	s.fabric.remoteGets++
	if ok {
		s.fabric.remoteHits++
	}
	s.fabric.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no %s entry %s", kind, key.Hex())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(framed)
}

// handleCachePut ingests one framed entry a runner computed. Import
// validates the frame on receipt — a corrupt body is rejected (and
// counted as a quarantine in the store), never installed.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	kind := r.PathValue("kind")
	key, err := simcache.ParseKey(r.PathValue("key"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 256<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch kind {
	case simcache.KindResult:
		err = s.store.ImportResult(key, body)
	case simcache.KindBlob:
		err = s.store.ImportBlob(key, body)
	default:
		httpError(w, http.StatusBadRequest, "unknown cache kind %q", kind)
		return
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
