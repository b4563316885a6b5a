package main

// The traced run. It renders the workload's specs twice on fresh
// stores: once plainly (the untraced reference) and once decomposed,
// calling each layer's public entry point in turn under a span — the
// shared searches, the workload suite, the injection studies, then
// every scenario's render on the pre-paid context. Probes after the
// decomposition time the layers an experiment context does not expose
// separately (GA candidate generation, liveness, golden capture, replay,
// attribution, rendering, framed-file I/O) on the same inputs. Spans
// stay in memory and are written out at the end.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"avfstress/internal/avf"
	"avfstress/internal/codegen"
	"avfstress/internal/core"
	"avfstress/internal/experiments"
	"avfstress/internal/ga"
	"avfstress/internal/liveness"
	"avfstress/internal/persist"
	"avfstress/internal/pipe"
	"avfstress/internal/prog"
	"avfstress/internal/rootcause"
	"avfstress/internal/simcache"
	"avfstress/internal/uarch"
	"avfstress/internal/workloads"
)

// perLayer lists the per-layer metrics every --trace 1 run reports,
// with their units. A layer a workload does not exercise reads 0.
var perLayer = []struct{ Name, Unit string }{
	{"core.search_s", "s"},
	{"ga.evals", "count"},
	{"ga.eval_ms", "ms"},
	{"core.memo_hit_frac", "frac"},
	{"codegen.calls", "count"},
	{"codegen.generate_us", "us"},
	{"workloads.suite_s", "s"},
	{"pipe.sim_instrs", "count"},
	{"pipe.sim_cycles", "count"},
	{"pipe.host_ns_per_instr", "ns"},
	{"cache.dl1_miss_rate", "frac"},
	{"cache.l2_miss_rate", "frac"},
	{"cache.dtlb_miss_rate", "frac"},
	{"experiments.table1_s", "s"},
	{"experiments.table2_s", "s"},
	{"experiments.fig3_s", "s"},
	{"experiments.fig4_s", "s"},
	{"experiments.fig5_s", "s"},
	{"experiments.fig6_s", "s"},
	{"experiments.fig7_s", "s"},
	{"experiments.fig8_s", "s"},
	{"experiments.fig9_s", "s"},
	{"experiments.table3_s", "s"},
	{"experiments.worstcase_s", "s"},
	{"experiments.powercontrast_s", "s"},
	{"experiments.hvf_s", "s"},
	{"experiments.rootcause_s", "s"},
	{"experiments.faultinject_s", "s"},
	{"liveness.analyze_ms", "ms"},
	{"inject.pruned_frac", "frac"},
	{"pipe.golden_ms", "ms"},
	{"pipe.checkpoints", "count"},
	{"pipe.checkpoint_kb", "KB"},
	{"inject.run_s", "s"},
	{"inject.replayed", "count"},
	{"pipe.replay_us", "us"},
	{"rootcause.aggregate_ms", "ms"},
	{"rootcause.attributed_frac", "frac"},
	{"report.render_ms", "ms"},
	{"simcache.simulated", "count"},
	{"simcache.mem_hits", "count"},
	{"simcache.blob_hits", "count"},
	{"simcache.blob_misses", "count"},
	{"simcache.disk_hits", "count"},
	{"simcache.disk_files", "count"},
	{"simcache.disk_mb", "MB"},
	{"persist.write_us", "us"},
	{"persist.read_us", "us"},
	{"service.submit_ms", "ms"},
	{"service.status_ms", "ms"},
	{"service.results_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_s", "s"},
	{"service.journal_records", "count"},
	{"sched.retries", "count"},
	{"trace.wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"split.search_pct", "%"},
	{"split.workloads_pct", "%"},
	{"split.replay_pct", "%"},
	{"split.persist_pct", "%"},
	{"daemon.job_cold_s", "s"},
	{"daemon.job_warm_s", "s"},
	{"daemon.memory_only_cold_s", "s"},
	{"daemon.setup_s", "s"},
	{"daemon.healthz_p50_ms", "ms"},
	{"daemon.healthz_p95_ms", "ms"},
}

// scenarioSpan names a scenario's span, and with "_s" its metric: the
// parametric forms ("faultinject:baseline:uniform:5000") by their kind.
func scenarioSpan(name string) string {
	kind, _, _ := strings.Cut(name, ":")
	return "experiments." + kind
}

// layerMetrics fills every per-layer metric from the collected values.
func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.Name] = metric{vals[m.Name], m.Unit}
	}
	return out
}

// injectBudget is the campaigns' run budget: experiments sizes it as
// the workload budget scaled down 8× (the golden probe cross-checks the
// resulting instruction and cycle counts against each campaign's).
func injectBudget(o experiments.Options) pipe.RunConfig {
	rc := pipe.RunConfig{MaxInstructions: o.WorkloadInstr, WarmupInstructions: o.WorkloadWarmup}
	if rc.MaxInstructions == 0 {
		rc.MaxInstructions, rc.WarmupInstructions = 160_000, 60_000
	}
	rc.MaxInstructions /= 8
	rc.WarmupInstructions /= 8
	return rc
}

// tracer accumulates one traced iteration.
type tracer struct {
	ctx    context.Context
	rec    *Recorder
	vals   map[string]float64
	checks []check
	blobs  [][]byte // real payloads for the persist probe
}

func (t *tracer) add(name string, v float64) { t.vals[name] += v }

// traceIteration is the worker side of a traced run.
func traceIteration(req workerReq, ready func()) (*workerResp, error) {
	ctx := context.Background()
	store := simcache.New(simcache.Options{})
	cs, names, err := contexts(req.Specs, store)
	if err != nil {
		return nil, err
	}
	ready()
	t0 := time.Now()
	outs, err := renderAll(ctx, cs, names)
	untraced := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	resp := &workerResp{ColdS: untraced}
	resp.Ledger = buildLedger(ctx, cs, req.Specs, store)
	finishResp(resp, req, outs)

	t := &tracer{ctx: ctx, rec: NewRecorder(), vals: map[string]float64{}}
	tstore := simcache.New(simcache.Options{})
	tcs, tnames, err := contexts(req.Specs, tstore)
	if err != nil {
		return nil, err
	}
	root := t.rec.Start("iteration", 0)
	var studies []ranStudy
	var searched [][]search
	var touts []string
	for i, c := range tcs {
		plan := planFor(c, req.Specs[i])
		searched = append(searched, plan.Searches)
		st, err := t.prepay(c, plan, tstore, root)
		if err != nil {
			return nil, err
		}
		studies = append(studies, st...)
		sim := tstore.Stats().Simulated
		var b strings.Builder
		for _, n := range tnames[i] {
			err := t.rec.Time(scenarioSpan(n), root, func(int) error {
				s, err := c.RunScenarios(ctx, []string{n})
				b.WriteString(s)
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		touts = append(touts, b.String())
		if d := tstore.Stats().Simulated - sim; d != 0 {
			t.checks = append(t.checks, fail("trace.plan_complete", "rendering after the pre-paid plan simulated %d more results", d))
		}
	}
	t.rec.End(root)
	for i := range outs {
		t.checks = append(t.checks, sameText("trace_equals_untraced", outs[i], touts[i]))
	}
	spans := t.rec.Spans()
	wall := spans[root-1].Dur().Seconds()
	for name, d := range Totals(spans) {
		if strings.HasPrefix(name, "experiments.") {
			t.vals[name+"_s"] = d.Seconds()
		}
	}
	t.vals["trace.wall_s"] = wall
	t.vals["trace.overhead_s"] = wall - untraced
	st := tstore.Stats()
	t.vals["simcache.simulated"] = float64(st.Simulated)
	t.vals["simcache.mem_hits"] = float64(st.MemHits)
	t.vals["simcache.blob_hits"] = float64(st.BlobHits)
	t.vals["simcache.blob_misses"] = float64(st.BlobMisses)
	t.vals["simcache.disk_hits"] = float64(st.DiskHits)

	// Probes, after the timed decomposition.
	for i, c := range tcs {
		probe := t.gaReplay
		if c.Opts.UseReferenceKnobs {
			probe = t.codegenProbe
		}
		for _, s := range searched[i] {
			if err := probe(c, s); err != nil {
				return nil, err
			}
		}
	}
	for _, s := range studies {
		if err := t.campaignProbe(s); err != nil {
			return nil, err
		}
	}
	if err := t.persistProbe(req); err != nil {
		return nil, err
	}
	t.derive()
	if err := t.rec.WriteFile(filepath.Join(req.WorkDir, "spans.json")); err != nil {
		return nil, err
	}
	self := SelfTimes(t.rec.Spans())
	fmt.Fprintf(os.Stderr, "perfbench: traced iteration %.3f s (untraced %.3f s); self time by span:\n", wall, untraced)
	printDurations(self)
	resp.Checks = append(resp.Checks, t.checks...)
	resp.Layers = t.vals
	return resp, nil
}

// ranStudy is an injection study with the context and plan entry that
// ran it.
type ranStudy struct {
	c  *experiments.Context
	sd study
	st *experiments.InjectionStudy
}

// prepay runs the plan's shared work, one span per layer call, and
// returns the injection studies it ran.
func (t *tracer) prepay(c *experiments.Context, plan workPlan, store *simcache.Store, root int) ([]ranStudy, error) {
	ctx := t.ctx
	for _, s := range plan.Searches {
		var sm *core.SearchResult
		err := t.rec.Time("core.search", root, func(int) (err error) {
			sm, err = c.Stressmark(ctx, s.Key, s.Cfg, s.Rates)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.add("ga.evals", float64(sm.Evaluations))
		t.simulated(sm.Result)
	}
	if plan.Workloads {
		var rs []*avf.Result
		err := t.rec.Time("workloads.suite", root, func(int) (err error) {
			rs, err = c.Workloads(ctx, c.Baseline)
			return err
		})
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			t.simulated(r)
			t.add("cache.dl1_miss_rate", r.DL1MissRate/float64(len(rs)))
			t.add("cache.l2_miss_rate", r.L2MissRate/float64(len(rs)))
			t.add("cache.dtlb_miss_rate", r.DTLBMissRate/float64(len(rs)))
			t.add("workloads.instrs", float64(r.Instructions))
		}
	}
	if plan.PowerVirus {
		err := t.rec.Time("pipe.powervirus", root, func(int) error {
			r, err := c.PowerVirus(ctx)
			t.simulated(r)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	var studies []ranStudy
	for _, s := range plan.Studies {
		before := store.Stats()
		var st *experiments.InjectionStudy
		err := t.rec.Time("inject.run", root, func(int) (err error) {
			st, err = c.FaultInjection(ctx, s.Config, s.Rates, s.Trials)
			return err
		})
		if err != nil {
			return nil, err
		}
		after := store.Stats()
		// Every replayed trial probes its blob and misses; the only
		// other misses are the golden-info probes of golden runs that
		// had to be simulated.
		t.add("inject.replayed", float64((after.BlobMisses-before.BlobMisses)-(after.Simulated-before.Simulated)))
		var trials, pruned, corrupted, attributed int
		for _, r := range st.Campaigns {
			t.simulated(r.Golden)
			trials += r.Trials
			pruned += r.Pruned
			if r.RootCause != nil {
				corrupted += r.RootCause.Corrupted
				attributed += r.RootCause.Attributed
			}
		}
		t.add("inject.trials", float64(trials))
		t.add("inject.pruned", float64(pruned))
		t.add("rootcause.corrupted", float64(corrupted))
		t.add("rootcause.attributed", float64(attributed))
		studies = append(studies, ranStudy{c, s, st})
	}
	return studies, nil
}

// simulated adds a result's exact simulated counts.
func (t *tracer) simulated(r *avf.Result) {
	if r == nil {
		return
	}
	t.add("pipe.sim_instrs", float64(r.Instructions))
	t.add("pipe.sim_cycles", float64(r.Cycles))
}

// gaReplay re-runs one search's GA trajectory against the warm store:
// the same genes, population, generations and seed as the search, with
// one evaluation at a time, counting fitness requests, memo hits
// (candidates already seen) and timing code generation of every
// distinct candidate. Fitness values come from the store, so the
// trajectory is the search's own; the distinct-candidate count cannot
// exceed the search's Evaluations.
func (t *tracer) gaReplay(c *experiments.Context, s search) error {
	ev, err := core.NewEvaluator(s.Cfg)
	if err != nil {
		return err
	}
	ev.WithCache(c.Cache())
	w := avf.DefaultWeights()
	if s.Key == "rhc" || s.Key == "edr" {
		w = avf.Weights{Core: 1} // the mitigation studies' core-only fitness
	}
	budget := core.DefaultEvalBudget(s.Cfg)
	memo := map[codegen.Knobs]float64{}
	var requested, distinct int
	fitness := func(g ga.Genome) (float64, error) {
		requested++
		k := core.KnobsFromGenome(g).Normalize(s.Cfg)
		if f, ok := memo[k]; ok {
			return f, nil
		}
		distinct++
		id := t.rec.Start("codegen.generate", 0)
		_, _, _ = codegen.Generate(s.Cfg, k, 1<<40) // a failing candidate is culled below, as in the search
		t.rec.End(id)
		f, err := ev.EvaluateKnobs(t.ctx, s.Rates, w, k, budget)
		if err != nil {
			if t.ctx.Err() != nil {
				return 0, err
			}
			f = 0
		}
		memo[k] = f
		return f, nil
	}
	_, err = ga.Run(t.ctx, ga.Config{
		Genes: core.Genes(s.Cfg), PopSize: c.Opts.GAPop, Generations: c.Opts.GAGens,
		Seed: c.Opts.Seed, Parallelism: 1,
	}, fitness)
	if err != nil {
		return err
	}
	sm, err := c.Stressmark(t.ctx, s.Key, s.Cfg, s.Rates)
	if err != nil {
		return err
	}
	if int64(distinct) > sm.Evaluations {
		t.checks = append(t.checks, fail("trace.ga_replay", "%s: replay saw %d distinct candidates, search evaluated %d",
			s.Key, distinct, sm.Evaluations))
	}
	t.add("ga.requested", float64(requested))
	t.add("ga.distinct", float64(distinct))
	t.add("codegen.calls", float64(distinct))
	return nil
}

// codegenProbe times generation of a reference-mode search's knobs.
func (t *tracer) codegenProbe(c *experiments.Context, s search) error {
	sm, err := c.Stressmark(t.ctx, s.Key, s.Cfg, s.Rates)
	if err != nil {
		return err
	}
	id := t.rec.Start("codegen.generate", 0)
	_, _, err = codegen.Generate(s.Cfg, sm.Knobs, 1<<40)
	t.rec.End(id)
	t.add("codegen.calls", 1)
	return err
}

// campaignProbe re-runs each campaign's layers on its own program:
// liveness analysis, the checkpoint-capturing golden run (whose counts
// must equal the campaign's), a replay of as many faults as the
// campaign has trials (drawn uniformly over its bit-cycle space and
// forked from the nearest checkpoint, GOMAXPROCS buckets at a time),
// attribution of the corrupted replays, and the study's rendering.
func (t *tracer) campaignProbe(rs ranStudy) error {
	c, st := rs.c, rs.st
	cfg := st.Config
	rc := injectBudget(c.Opts)
	pool, err := pipe.NewPool(cfg)
	if err != nil {
		return err
	}
	rng := splitmix{c.Opts.Seed}
	for _, camp := range st.Campaigns {
		p, err := campaignProgram(t.ctx, c, rs.sd, camp.Workload)
		if err != nil {
			return err
		}
		var live *liveness.Summary
		t.rec.Time("liveness.analyze", 0, func(int) error {
			live = liveness.Analyze(p, cfg.Core)
			return nil
		})
		var (
			res  *avf.Result
			info pipe.GoldenInfo
			set  *pipe.CheckpointSet
		)
		err = t.rec.Time("pipe.golden", 0, func(int) (err error) {
			res, info, set, err = pool.SimulateGoldenRecorded(p, rc, 0, live.DeadDefs)
			return err
		})
		if err != nil {
			return err
		}
		if res.Instructions != camp.Golden.Instructions || res.Cycles != camp.Golden.Cycles {
			t.checks = append(t.checks, fail("trace.golden_matches", "%s: probe golden %d instrs %d cycles, campaign %d/%d",
				camp.Workload, res.Instructions, res.Cycles, camp.Golden.Instructions, camp.Golden.Cycles))
		}
		if !hasWorkloads(t.vals) {
			t.add("golden.instrs", float64(res.Instructions))
			t.add("golden.dl1", res.DL1MissRate)
			t.add("golden.l2", res.L2MissRate)
			t.add("golden.dtlb", res.DTLBMissRate)
			t.add("golden.n", 1)
		}
		t.add("pipe.checkpoints", float64(len(set.Checkpoints)))
		for _, ck := range set.Checkpoints {
			b, err := ck.MarshalBinary()
			if err != nil {
				return err
			}
			t.add("pipe.checkpoint_kb", float64(len(b))/1024)
			t.blobs = append(t.blobs, b)
		}
		if b, err := json.Marshal(res); err == nil {
			t.blobs = append(t.blobs, b)
		}

		faults := drawFaults(&rng, cfg, info, camp.Trials)
		var trials []pipe.FaultTrial
		err = t.rec.Time("pipe.replay", 0, func(int) (err error) {
			trials, err = replayBuckets(pool, p, rc, set, faults)
			return err
		})
		if err != nil {
			return err
		}
		t.add("pipe.replay_trials", float64(len(faults)))
		var rts []rootcause.Trial
		sampled := map[uarch.Structure]int{}
		for i, tr := range trials {
			sampled[faults[i].Structure]++
			if tr.Corrupted {
				rts = append(rts, rootcause.Trial{Fault: faults[i], Diverge: tr.Diverge})
			}
		}
		t.rec.Time("rootcause.aggregate", 0, func(int) error {
			rootcause.Aggregate(p, cfg, rts, sampled)
			return nil
		})
	}
	t.rec.Time("report.render", 0, func(int) error {
		_ = st.String()
		_ = st.RootCauseReport()
		return nil
	})
	return nil
}

func hasWorkloads(vals map[string]float64) bool { return vals["workloads.instrs"] > 0 }

// campaignProgram rebuilds a campaign's program: a panel workload
// proxy by name, otherwise the study's stressmark.
func campaignProgram(ctx context.Context, c *experiments.Context, sd study, name string) (*prog.Program, error) {
	cfg, err := experiments.ResolveConfig(sd.Config, c.Opts.Scale)
	if err != nil {
		return nil, err
	}
	if pf, err := workloads.ByName(name); err == nil {
		return pf.Build(cfg, c.Opts.Seed)
	}
	rates, err := experiments.ResolveRates(sd.Rates)
	if err != nil {
		return nil, err
	}
	return c.StressmarkProgram(ctx, experiments.SearchKeyFor(sd.Config, sd.Rates), cfg, rates)
}

// splitmix is a splitmix64 stream for the probe's fault draws.
type splitmix struct{ state int64 }

func (s *splitmix) next() uint64 {
	s.state += -7046029254386353131 // 0x9E3779B97F4A7C15
	z := uint64(s.state)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// drawFaults samples n single-bit faults uniformly over the golden
// window's bit-cycle space (structure in proportion to its bits).
func drawFaults(rng *splitmix, cfg uarch.Config, info pipe.GoldenInfo, n int) []pipe.Fault {
	var total uint64
	bits := make([]uint64, uarch.NumStructures)
	for s := range bits {
		bits[s] = uarch.Bits(cfg, uarch.Structure(s))
		total += bits[s]
	}
	faults := make([]pipe.Fault, n)
	for i := range faults {
		b := rng.next() % total
		s := 0
		for b >= bits[s] {
			b -= bits[s]
			s++
		}
		faults[i] = pipe.Fault{Structure: uarch.Structure(s), Bit: b,
			Cycle: info.WindowStart + int64(rng.next()%uint64(info.Cycles))}
	}
	return faults
}

// replayBuckets replays faults grouped by their nearest valid
// checkpoint, GOMAXPROCS buckets at a time, and returns the trials in
// fault order.
func replayBuckets(pool *pipe.Pool, p *prog.Program, rc pipe.RunConfig, set *pipe.CheckpointSet, faults []pipe.Fault) ([]pipe.FaultTrial, error) {
	buckets := map[int][]int{}
	for i, f := range faults {
		n := pipe.NearestCheckpoint(set.Cycles(), set.Lead, f.Cycle)
		buckets[n] = append(buckets[n], i)
	}
	keys := make([]int, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]pipe.FaultTrial, len(faults))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, k := range keys {
		idx := buckets[k]
		var ck *pipe.Checkpoint
		if k >= 0 {
			ck = set.Checkpoints[k]
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			fs := make([]pipe.Fault, len(idx))
			for j, i := range idx {
				fs[j] = faults[i]
			}
			trials, err := pool.SimulateFaultsDetailFrom(p, rc, ck, fs)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			for j, i := range idx {
				out[i] = trials[j]
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

// persistProbe writes each payload as a framed, fsynced file and reads
// it back: the daemon's real cache files when given, otherwise the
// in-process blobs (checkpoints and golden results).
func (t *tracer) persistProbe(req workerReq) error {
	payloads := t.blobs
	if len(req.Persist) > 0 {
		payloads = nil
		for _, path := range req.Persist {
			var b []byte
			err := t.rec.Time("persist.read", 0, func(int) (err error) {
				b, err = persist.ReadFramedFile(path)
				return err
			})
			if err != nil {
				return err
			}
			payloads = append(payloads, b)
		}
	}
	dir := filepath.Join(req.WorkDir, "persist-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for i, b := range payloads {
		path := filepath.Join(dir, fmt.Sprintf("%d.bin", i))
		if err := t.rec.Time("persist.write", 0, func(int) error { return persist.WriteFramedFile(path, b) }); err != nil {
			return err
		}
		if len(req.Persist) == 0 {
			if err := t.rec.Time("persist.read", 0, func(int) error {
				_, err := persist.ReadFramedFile(path)
				return err
			}); err != nil {
				return err
			}
		}
	}
	t.add("persist.files", float64(len(payloads)))
	return nil
}

// derive turns the accumulated spans and counts into the per-layer
// metrics.
func (t *tracer) derive() {
	v := t.vals
	tot := Totals(t.rec.Spans())
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v["core.search_s"] = tot["core.search"].Seconds()
	v["ga.eval_ms"] = div(v["core.search_s"]*1e3, v["ga.evals"])
	v["core.memo_hit_frac"] = div(v["ga.requested"]-v["ga.distinct"], v["ga.requested"])
	v["codegen.generate_us"] = div(float64(tot["codegen.generate"].Microseconds()), v["codegen.calls"])
	v["workloads.suite_s"] = tot["workloads.suite"].Seconds()
	if hasWorkloads(v) {
		v["pipe.host_ns_per_instr"] = div(float64(tot["workloads.suite"].Nanoseconds()), v["workloads.instrs"])
	} else {
		n := v["golden.n"]
		v["pipe.host_ns_per_instr"] = div(float64(tot["pipe.golden"].Nanoseconds()), v["golden.instrs"])
		v["cache.dl1_miss_rate"] = div(v["golden.dl1"], n)
		v["cache.l2_miss_rate"] = div(v["golden.l2"], n)
		v["cache.dtlb_miss_rate"] = div(v["golden.dtlb"], n)
	}
	v["liveness.analyze_ms"] = float64(tot["liveness.analyze"].Microseconds()) / 1e3
	v["pipe.golden_ms"] = float64(tot["pipe.golden"].Microseconds()) / 1e3
	v["inject.run_s"] = tot["inject.run"].Seconds()
	v["inject.pruned_frac"] = div(v["inject.pruned"], v["inject.trials"])
	v["pipe.replay_us"] = div(float64(tot["pipe.replay"].Microseconds()), v["pipe.replay_trials"])
	v["rootcause.aggregate_ms"] = float64(tot["rootcause.aggregate"].Microseconds()) / 1e3
	v["rootcause.attributed_frac"] = div(v["rootcause.attributed"], v["rootcause.corrupted"])
	v["report.render_ms"] = float64(tot["report.render"].Microseconds()) / 1e3
	v["persist.write_us"] = div(float64(tot["persist.write"].Microseconds()), v["persist.files"])
	v["persist.read_us"] = div(float64(tot["persist.read"].Microseconds()), v["persist.files"])
	v["split.search_pct"] = div(100*v["core.search_s"], v["trace.wall_s"])
	v["split.workloads_pct"] = div(100*v["workloads.suite_s"], v["trace.wall_s"])
	v["split.replay_pct"] = div(100*v["inject.replayed"]*v["pipe.replay_us"]/1e6, v["trace.wall_s"])
}

func printDurations(m map[string]time.Duration) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return m[names[i]] > m[names[j]] })
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %10.3f s\n", n, m[n].Seconds())
	}
}
