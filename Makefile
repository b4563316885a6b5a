GO ?= go

# Benchmark packages: the experiment suite (repo root) plus the cache
# lifetime-engine microbenchmarks.
BENCH_PKGS = . ./internal/cache

.PHONY: all build vet test race rootcause-diff fuzz-smoke check bench bench-compare bench-smoke profile cache-smoke serve-smoke chaos-smoke docs-check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the concurrency-heavy tiers under the race detector:
# sched.Each (panic containment, first error, cancellation) and every
# package that fans out through it — GA evaluation and the stressmark search (whose concurrency oracle is
# TestSearchEvaluationsExactAcrossParallelism), experiment
# orchestration and workload suites, injection campaigns — plus the job
# service with journal replay, root-cause attribution, the
# simcache/persist quarantine paths and the pipeline/cache
# snapshot-restore paths.
race:
	$(GO) test -race ./internal/sched ./internal/ga ./internal/core ./internal/service ./internal/experiments ./internal/inject ./internal/rootcause ./internal/liveness ./internal/simcache ./internal/persist ./internal/pipe ./internal/cache

# rootcause-diff runs the attribution differential suite twice over
# (DESIGN.md §14): the replay-vs-static soundness sweep plus the
# byte-determinism matrix, -count=2 so any map-order nondeterminism in
# the aggregation tables shows up as a report diff between the runs.
rootcause-diff:
	$(GO) test ./internal/inject -run 'TestRootCause' -count=2
	$(GO) test ./internal/rootcause -count=2

# fuzz-smoke runs each decoder and parser fuzz target for a short time
# beyond its committed seed corpus: the injection slice-table,
# golden-info, golden-entry and campaign-result codecs, the CRC frame every disk entry
# goes through, the job-journal line decoder, scenario-spec resolution,
# job-submission bodies through the HTTP handler, and the binary
# program-fingerprint encoding that keys simulations (equal exactly
# when the programs are); plus the one-pass replay oracle, which checks
# random fault sets batched into one replay against per-fault replays.
fuzz-smoke:
	$(GO) test ./internal/inject -run '^$$' -fuzz '^FuzzDecodeSlice$$' -fuzztime 10s
	$(GO) test ./internal/inject -run '^$$' -fuzz '^FuzzDecodeGoldenInfo$$' -fuzztime 10s
	$(GO) test ./internal/inject -run '^$$' -fuzz '^FuzzDecodeGolden$$' -fuzztime 10s
	$(GO) test ./internal/inject -run '^$$' -fuzz '^FuzzDecodeCampaign$$' -fuzztime 10s
	$(GO) test ./internal/persist -run '^$$' -fuzz '^FuzzDecodeFramed$$' -fuzztime 10s
	$(GO) test ./internal/service -run '^$$' -fuzz '^FuzzDecodeJournalLine$$' -fuzztime 10s
	$(GO) test ./internal/experiments -run '^$$' -fuzz '^FuzzResolveSpec$$' -fuzztime 10s
	$(GO) test ./internal/service -run '^$$' -fuzz '^FuzzSubmitBody$$' -fuzztime 10s
	$(GO) test ./internal/prog -run '^$$' -fuzz '^FuzzProgramFingerprint$$' -fuzztime 10s
	$(GO) test ./internal/pipe -run '^$$' -fuzz '^FuzzFaultBatchMatchesSolo$$' -fuzztime 10s

check: vet build test

# bench runs the whole benchmark suite once and records a machine-readable
# snapshot, plus a timestamped archive copy so the perf trajectory is
# preserved across PRs (see DESIGN.md §6).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x $(BENCH_PKGS) | $(GO) run ./cmd/benchjson > BENCH_latest.json
	cp BENCH_latest.json BENCH_$$(date +%Y-%m-%d).json
	@echo wrote BENCH_latest.json and BENCH_$$(date +%Y-%m-%d).json

# bench-smoke is the CI variant: one iteration of every benchmark,
# compared against the committed snapshot — it proves the experiment
# drivers still run end-to-end and gates >20% ns/op regressions. The
# intermediate file keeps go test's own exit status observable (a plain
# pipe would report only benchjson's).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x $(BENCH_PKGS) > bench-smoke.out || { cat bench-smoke.out; rm -f bench-smoke.out; exit 1; }
	@status=0; $(GO) run ./cmd/benchjson -check BENCH_latest.json -tolerance 0.20 -min-ns 100000000 < bench-smoke.out > /dev/null || status=1; \
	rm -f bench-smoke.out; exit $$status

# bench-compare produces the 5-run samples used for before/after
# comparisons: the two headline simulation benchmarks, the default
# 1000-trial injection campaign, and the replay layer alone (one
# checkpoint fork plus one 80-fault slice).
bench-compare:
	$(GO) test -run '^$$' -bench 'BenchmarkTableI_BaselineSim|BenchmarkFig5_GASearchBaseline|BenchmarkInjectCampaign$$' -benchmem -count 5 .
	$(GO) test -run '^$$' -bench '^BenchmarkSliceReplay$$' -benchmem -count 5 ./internal/pipe

# profile prints the CPU profile (go tool pprof -top) of two paths a
# user waits on: the reference-knob experiment suite (avfbench -ref) and
# a default 1000-trial avfinject campaign, both cold and memory-only.
PROFILE_DIR ?= $(CURDIR)/.profile
profile:
	rm -rf $(PROFILE_DIR)
	mkdir -p $(PROFILE_DIR)
	$(GO) build -o $(PROFILE_DIR)/avfbench ./cmd/avfbench
	$(GO) build -o $(PROFILE_DIR)/avfinject ./cmd/avfinject
	$(PROFILE_DIR)/avfbench -ref -quiet -cpuprofile $(PROFILE_DIR)/avfbench.prof > /dev/null
	$(PROFILE_DIR)/avfinject -cpuprofile $(PROFILE_DIR)/avfinject.prof > /dev/null
	$(GO) tool pprof -top -nodecount 30 $(PROFILE_DIR)/avfbench $(PROFILE_DIR)/avfbench.prof
	$(GO) tool pprof -top -nodecount 30 $(PROFILE_DIR)/avfinject $(PROFILE_DIR)/avfinject.prof
	rm -rf $(PROFILE_DIR)

# cache-smoke proves the simcache determinism contract end-to-end: the
# full experiment suite, and a 2000-trial avfinject campaign study with
# root-cause attribution, must each render byte-identically memory-only
# (no -cache-dir), with a cold disk tier, and warm-from-disk — and each
# warm run must actually be served from disk (>0 disk hits and no
# simulation in the stats line). A warm campaign is one lookup of its
# memoised result, so the warm avfinject run reads no golden or
# outcome-table blob either (blob=0/0).
CACHE_SMOKE_DIR ?= $(CURDIR)/.cache-smoke
cache-smoke:
	rm -rf $(CACHE_SMOKE_DIR)
	mkdir -p $(CACHE_SMOKE_DIR)
	$(GO) build -o $(CACHE_SMOKE_DIR)/avfbench ./cmd/avfbench
	$(GO) build -o $(CACHE_SMOKE_DIR)/avfinject ./cmd/avfinject
	$(CACHE_SMOKE_DIR)/avfbench -ref -quiet > $(CACHE_SMOKE_DIR)/off.out
	$(CACHE_SMOKE_DIR)/avfbench -ref -quiet -cache-dir $(CACHE_SMOKE_DIR)/cache > $(CACHE_SMOKE_DIR)/cold.out 2> $(CACHE_SMOKE_DIR)/cold.err
	$(CACHE_SMOKE_DIR)/avfbench -ref -quiet -cache-dir $(CACHE_SMOKE_DIR)/cache > $(CACHE_SMOKE_DIR)/warm.out 2> $(CACHE_SMOKE_DIR)/warm.err
	cmp $(CACHE_SMOKE_DIR)/off.out $(CACHE_SMOKE_DIR)/cold.out
	cmp $(CACHE_SMOKE_DIR)/cold.out $(CACHE_SMOKE_DIR)/warm.out
	grep -E '^# cache: mem=[0-9]+ disk=[1-9][0-9]* sim=0 ' $(CACHE_SMOKE_DIR)/warm.err
	$(CACHE_SMOKE_DIR)/avfinject -trials 2000 -root-cause > $(CACHE_SMOKE_DIR)/inj-off.out 2> /dev/null
	$(CACHE_SMOKE_DIR)/avfinject -trials 2000 -root-cause -cache-dir $(CACHE_SMOKE_DIR)/injcache > $(CACHE_SMOKE_DIR)/inj-cold.out 2> $(CACHE_SMOKE_DIR)/inj-cold.err
	$(CACHE_SMOKE_DIR)/avfinject -trials 2000 -root-cause -cache-dir $(CACHE_SMOKE_DIR)/injcache > $(CACHE_SMOKE_DIR)/inj-warm.out 2> $(CACHE_SMOKE_DIR)/inj-warm.err
	cmp $(CACHE_SMOKE_DIR)/inj-off.out $(CACHE_SMOKE_DIR)/inj-cold.out
	cmp $(CACHE_SMOKE_DIR)/inj-cold.out $(CACHE_SMOKE_DIR)/inj-warm.out
	grep -E '^# cache: mem=[0-9]+ disk=[1-9][0-9]* sim=0 .* blob=0/0$$' $(CACHE_SMOKE_DIR)/inj-warm.err
	@echo cache-smoke OK: outputs byte-identical, warm runs served from disk
	rm -rf $(CACHE_SMOKE_DIR)

# serve-smoke boots avfstressd, submits two concurrent overlapping
# scenario jobs and asserts the second is served mostly from cache hits
# (fewer fresh simulations than the first) — the daemon's shared-store
# contract, end to end over real HTTP.
serve-smoke:
	sh scripts/serve_smoke.sh

# chaos-smoke proves the crash-safety contract over a real SIGKILL:
# a daemon killed mid-campaign and restarted on the same journal+cache
# resubmits the interrupted job and reproduces its report
# byte-identically (warm); a flipped byte in a cached entry is
# quarantined and re-simulated, never a crash or a changed report.
chaos-smoke:
	sh scripts/chaos_smoke.sh

# docs-check keeps the documentation honest: gofmt, vet, every example
# builds, and no README/DESIGN reference points at a repo path, or (via
# go doc) at an internal package's function, type, field or method, that
# no longer exists; and no func in internal/ or cmd/ is reached only by
# tests (scripts/docs_check.sh rule 7).
docs-check:
	sh scripts/docs_check.sh
