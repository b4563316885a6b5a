#!/usr/bin/env bash
# Builds the benchmark and avfstressd from this checkout's sources, then
# runs the benchmark with the given arguments. Run from the repository
# root:  bash perfbench/run.sh --workload suite --seed 1 --seconds 45 --trace 0
# Every build input and output stays under .bench_build/perfbench.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" . >&2
go build -o "$out/avfstressd" ./cmd/avfstressd >&2
exec "$out/perfbench" "$@"
