// Command avfstressd serves the experiment portfolio over HTTP: clients
// submit declarative scenario specs, the daemon schedules their
// combined job DAG on a bounded worker pool, and every job shares one
// content-addressed simulation store — concurrent clients requesting
// overlapping scenarios each pay only the marginal simulations.
//
// Usage:
//
//	avfstressd [-addr :8080] [-cache-dir DIR] [-journal FILE] [-scale N]
//	           [-parallelism N] [-max-jobs N] [-max-queue N]
//	           [-retries N] [-job-timeout D] [-drain-timeout D]
//	           [-read-timeout D] [-write-timeout D] [-idle-timeout D]
//	           [-quiet]
//
// API:
//
//	POST   /v1/jobs          submit a scenario.Spec (JSON); returns the job
//	GET    /v1/jobs          list jobs + server-wide cache stats
//	GET    /v1/jobs/{id}     job status (+ ?stream=1: progress stream)
//	DELETE /v1/jobs/{id}     cancel a queued or running job
//	GET    /v1/results/{id}  rendered report + stats (+ ?format=text)
//	GET    /v1/healthz       journal/queue/cache health (JSON)
//	GET    /healthz          liveness
//
// The README documents every route with an example curl session.
// Specs may request registered experiments or the parametric
// stressmark / workloads / faultinject / rootcause scenarios
// (faultinject runs the Monte Carlo fault-injection validation,
// DESIGN.md §9; rootcause renders the same study's per-instruction
// attribution tables, DESIGN.md §14).
//
// With -journal, every accepted submission and terminal outcome is
// durably journalled: a killed daemon restarted on the same journal
// and cache resubmits its unfinished jobs and — because simulation
// results are memoised — reproduces their reports byte-identically
// (DESIGN.md §11). On SIGINT/SIGTERM the daemon drains gracefully:
// new submissions are refused, running jobs get -drain-timeout to
// finish, and whatever is still running resumes after restart.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"avfstress/internal/sched"
	"avfstress/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		cacheDir = flag.String("cache-dir", "", "persist simulation results under this directory (shared across jobs, runs and processes)")
		journal  = flag.String("journal", "", "durable job journal file; on startup unfinished journalled jobs are resubmitted (empty = no journal)")
		scale    = flag.Int("scale", 0, "default cache scale-down factor for jobs that set none (0 = harness default)")
		par      = flag.Int("parallelism", 0, "per-job concurrency bound (0 = all cores)")
		maxJobs  = flag.Int("max-jobs", 0, "concurrently running jobs; excess queue in order (0 = all cores)")
		maxQueue = flag.Int("max-queue", 0, "admitted unfinished jobs; submissions beyond this get 429 (0 = 1024)")
		retries  = flag.Int("retries", 0, "attempts per scheduler job that exceeds -job-timeout; 1 disables retries (0 = server default of 3)")
		jobTO    = flag.Duration("job-timeout", 0, "deadline per scheduler job (simulation/search/render); exceeded deadlines are retried, then fail the job (0 = none)")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM lets running jobs finish before they are suspended for restart")
		readTO   = flag.Duration("read-timeout", 30*time.Second, "HTTP read timeout (0 = none)")
		writeTO  = flag.Duration("write-timeout", 10*time.Minute, "HTTP write timeout; bounds streamed progress too (0 = none)")
		idleTO   = flag.Duration("idle-timeout", 2*time.Minute, "HTTP idle connection timeout (0 = none)")
		quiet    = flag.Bool("quiet", false, "suppress server logging")
	)
	flag.Parse()

	opts := service.Options{
		CacheDir:    *cacheDir,
		JournalPath: *journal,
		Scale:       *scale,
		Parallelism: *par,
		MaxJobs:     *maxJobs,
		MaxQueue:    *maxQueue,
		JobTimeout:  *jobTO,
	}
	if *retries > 0 {
		opts.Retry = sched.RetryPolicy{MaxAttempts: *retries}
	}
	if !*quiet {
		opts.Logf = func(f string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "avfstressd: "+f+"\n", args...)
		}
	}
	srv, err := service.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "avfstressd:", err)
		os.Exit(1)
	}
	if n := srv.Recovered(); n > 0 {
		fmt.Fprintf(os.Stderr, "avfstressd: resubmitted %d unfinished jobs from %s\n", n, *journal)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "avfstressd:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "avfstressd: listening on http://%s\n", ln.Addr())
	hs := &http.Server{
		Handler:      srv,
		ReadTimeout:  *readTO,
		WriteTimeout: *writeTO,
		IdleTimeout:  *idleTO,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "avfstressd:", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "avfstressd: %v — draining (up to %v)\n", s, *drainTO)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Drain(ctx); err != nil && err != context.DeadlineExceeded {
		fmt.Fprintln(os.Stderr, "avfstressd: drain:", err)
	}
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	hs.Shutdown(hctx)
}
