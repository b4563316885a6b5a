package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"avfstress/internal/simcache"
)

// traceInProcess runs the suite or campaign traced iteration in a
// worker and reports its per-layer metrics.
func (r *run) traceInProcess(req workerReq) (map[string]metric, error) {
	req.Trace = true
	resp, _, _, err := r.spawnWorker(req)
	r.tally(err == nil)
	if err != nil {
		return nil, err
	}
	r.tallyChecks(0, resp.Checks)
	v := resp.Layers
	fmt.Fprintf(os.Stderr, "perfbench: %s split of the traced wall time (base %.3f s): search %.1f%%, workload suite %.1f%%, replay %.1f%%\n",
		r.Workload, v["trace.wall_s"], v["split.search_pct"], v["split.workloads_pct"], v["split.replay_pct"])
	return layerMetrics(v), nil
}

// traceDaemon runs one daemon iteration with a span around every HTTP
// call, the same specs cold on a memory-only daemon, then the traced
// in-process decomposition of the specs. The memory-only run measures
// the disk tier's share of the cold-job time; the decomposition's
// replay measurements estimate the replay share.
func (r *run) traceDaemon(ref workerReq, dir string) (map[string]metric, error) {
	rec := NewRecorder()
	iterDir := filepath.Join(dir, "iter0")
	it, err := r.daemonIteration(iterDir, ref.Specs, rec)
	r.tally(err == nil)
	if err != nil {
		return nil, err
	}
	memCold, memJobs, err := r.memoryOnlyCold(filepath.Join(dir, "memory-only"), ref.Specs, rec)
	r.tally(err == nil)
	if err != nil {
		return nil, err
	}
	for i, jr := range memJobs {
		if i < len(it.coldJobs) {
			r.tallyChecks(0, []check{sameText("daemon_memory_only_equals_disk", jr.text, it.coldJobs[i].text)})
		}
	}
	if err := rec.WriteFile(filepath.Join(dir, "daemon-spans.json")); err != nil {
		return nil, err
	}
	files, bytes, err := cacheFiles(filepath.Join(iterDir, "cache"))
	if err != nil {
		return nil, err
	}

	ref.Trace = true
	ref.Persist = sample(files, 400)
	resp, _, _, err := r.spawnWorker(ref)
	r.tally(err == nil)
	if err != nil {
		return nil, err
	}
	r.tallyChecks(0, resp.Checks)
	r.tallyChecks(0, daemonChecks(it, resp.Digests))
	v := resp.Layers

	for _, k := range []string{"simulated", "mem_hits", "blob_hits", "blob_misses", "disk_hits"} {
		v["simcache."+k] = 0
	}
	var queue []float64
	v["service.run_s"], v["sched.retries"] = 0, 0
	for i, jr := range append(append([]jobRun(nil), it.coldJobs...), it.warmJobs...) {
		st := jr.status
		v["simcache.simulated"] += float64(st.Stats.Simulated)
		v["simcache.mem_hits"] += float64(st.Stats.MemHits)
		v["simcache.blob_hits"] += float64(st.Stats.BlobHits)
		v["simcache.blob_misses"] += float64(st.Stats.BlobMisses)
		v["simcache.disk_hits"] += float64(st.Stats.DiskHits)
		v["sched.retries"] += float64(st.Retries)
		if i < len(it.coldJobs) && st.StartedAt != nil && st.EndedAt != nil {
			queue = append(queue, float64(st.StartedAt.Sub(st.CreatedAt).Microseconds())/1e3)
			v["service.run_s"] += st.EndedAt.Sub(*st.StartedAt).Seconds()
		}
	}
	spans := map[string][]float64{}
	for _, s := range rec.Spans() {
		spans[s.Name] = append(spans[s.Name], float64(s.Dur().Microseconds())/1e3)
	}
	v["service.submit_ms"] = median(spans["service.submit"])
	v["service.status_ms"] = median(spans["service.status"])
	v["service.results_ms"] = median(spans["service.results"])
	v["service.queue_wait_ms"] = median(queue)
	if it.health.Journal != nil {
		v["service.journal_records"] = float64(it.health.Journal.Records)
	}
	v["simcache.disk_files"] = float64(len(files))
	v["simcache.disk_mb"] = float64(bytes) / (1 << 20)

	v["daemon.job_cold_s"], v["daemon.job_warm_s"], v["daemon.memory_only_cold_s"] = it.cold, it.warm, memCold
	v["daemon.setup_s"] = median(it.setups)
	probes := durationsMs(it.probe.Latency)
	v["daemon.healthz_p50_ms"], v["daemon.healthz_p95_ms"] = median(probes), percentile(probes, 95)
	for i := range probes {
		r.tally(i >= it.probe.Failed)
	}

	// Replay is a serial-cost estimate (replayed trials × the probe's
	// time per replay, both from the in-process decomposition); the
	// disk tier's share is measured: the cold job with the disk cache
	// and journal less the same job on a memory-only daemon.
	v["split.replay_pct"] = 100 * v["inject.replayed"] * v["pipe.replay_us"] / (it.cold * 1e6)
	v["split.persist_pct"] = 100 * (it.cold - memCold) / it.cold
	fmt.Fprintf(os.Stderr, "perfbench: daemon cold-job split (base job_cold_s %.3f s): replay %.1f%% (%.0f replays × %.1f µs), disk tier %.1f%% (memory-only cold job %.3f s; %.0f files × %.1f µs framed write)\n",
		it.cold, v["split.replay_pct"], v["inject.replayed"], v["pipe.replay_us"],
		v["split.persist_pct"], memCold, v["simcache.disk_files"], v["persist.write_us"])
	return layerMetrics(v), nil
}

// cacheFiles lists the framed entries of a simcache directory (results
// and blobs under its engine-version subdirectory, not quarantined or
// temporary files) and their total size.
func cacheFiles(dir string) ([]string, int64, error) {
	var files []string
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == simcache.QuarantineDirName {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".bin") && !strings.HasSuffix(path, ".json") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files = append(files, path)
		total += info.Size()
		return nil
	})
	sort.Strings(files)
	return files, total, err
}

// sample picks at most n evenly spaced entries.
func sample(xs []string, n int) []string {
	if len(xs) <= n {
		return xs
	}
	out := make([]string, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}
