#!/bin/sh
# cluster_smoke proves the campaign-fabric contract end to end over
# real processes and real HTTP (DESIGN.md §13):
#
#  1. Baseline: a solo daemon runs the spec; its report is the
#     byte-exact reference.
#  2. Cluster: a fresh coordinator plus two runner processes run the
#     same spec sharded. One runner is SIGKILLed while it holds job
#     leases; the fabric must steal its claims, finish the campaign,
#     and render the baseline report byte-identically.
#
# On a multi-core host (nproc >= 4) the sharded run must also be no
# slower than the solo run; on smaller machines the three processes
# timeslice one core, so only correctness is asserted.
#
# checkpoint_interval -1 forks every replay slice from cycle zero: the
# number of leased slice jobs is the same at every interval, but each
# runs longer, so the SIGKILL reliably lands while leases are held.
set -eu

DIR=${CLUSTER_SMOKE_DIR:-$PWD/.cluster-smoke}
ADDR=${CLUSTER_SMOKE_ADDR:-127.0.0.1:18736}
BASE="http://$ADDR"
SPEC='{"scenarios":["faultinject:baseline:uniform:240","faultinject:baseline:rhc:240"],"mode":"reference","scale":32,"seed":1,"workload_instr":100000,"workload_warmup":20000,"checkpoint_interval":-1}'

rm -rf "$DIR"
mkdir -p "$DIR"
go build -o "$DIR/avfstressd" ./cmd/avfstressd

PID=
RPID1=
RPID2=
start_daemon() { # $1 = state dir, $2 = log tag
    "$DIR/avfstressd" -addr "$ADDR" -cache-dir "$1/cache" -journal "$1/jobs.journal" \
        -max-jobs 1 -parallelism 1 -heartbeat 200ms -lease-ttl 2s \
        >>"$DIR/$2.log" 2>&1 &
    PID=$!
    i=0
    until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 100 ]; then
            echo "cluster-smoke: daemon ($2) never became healthy" >&2
            cat "$DIR/$2.log" >&2
            exit 1
        fi
        sleep 0.1
    done
}
stop_daemon() { # graceful
    kill "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
    PID=
}
start_runner() { # $1 = runner number; sets RPID$1
    "$DIR/avfstressd" -join "$BASE" -runners 1 -runner-name "smoke-r$1" \
        -cache-dir "$DIR/runner$1/cache" -parallelism 2 \
        >>"$DIR/runner$1.log" 2>&1 &
    eval "RPID$1=\$!"
}
cleanup() {
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
    [ -n "$RPID1" ] && kill -9 "$RPID1" 2>/dev/null || true
    [ -n "$RPID2" ] && kill -9 "$RPID2" 2>/dev/null || true
}
trap cleanup EXIT

submit() { curl -fsS -X POST -d "$SPEC" "$BASE/v1/jobs" | grep -o '"id": *"job-[0-9]*"' | head -1 | grep -o 'job-[0-9]*'; }
job_status() { curl -fsS "$BASE/v1/jobs/$1" | grep -o '"status": *"[a-z]*"' | head -1 | cut -d'"' -f4; }
cluster_field() { curl -fsS "$BASE/v1/healthz" | grep -o "\"$1\": *[0-9]*" | head -1 | grep -o '[0-9]*$'; }

wait_done() {
    i=0
    while :; do
        st=$(job_status "$1")
        case "$st" in
        done) return 0 ;;
        failed | canceled)
            echo "cluster-smoke: job $1 ended $st" >&2
            curl -fsS "$BASE/v1/jobs/$1" >&2 || true
            exit 1
            ;;
        esac
        i=$((i + 1))
        if [ "$i" -ge 1200 ]; then
            echo "cluster-smoke: job $1 never finished" >&2
            exit 1
        fi
        sleep 0.2
    done
}

# --- Phase 1: the solo baseline -------------------------------------
t0=$(date +%s)
start_daemon "$DIR/solo" solo
idb=$(submit)
wait_done "$idb"
curl -fsS "$BASE/v1/results/$idb?format=text" >"$DIR/solo_report.txt"
stop_daemon
t1=$(date +%s)
solo_secs=$((t1 - t0))
echo "cluster-smoke: solo baseline $idb done in ${solo_secs}s ($(wc -c <"$DIR/solo_report.txt") report bytes)"

# --- Phase 2: coordinator + 2 runners, one killed mid-flight --------
t2=$(date +%s)
start_daemon "$DIR/coord" coord
start_runner 1
start_runner 2
i=0
until [ "$(cluster_field connected_runners)" = 2 ]; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "cluster-smoke: runners never joined the coordinator" >&2
        cat "$DIR/runner1.log" "$DIR/runner2.log" >&2
        exit 1
    fi
    sleep 0.1
done
echo "cluster-smoke: 2 runners joined"

idc=$(submit)
# Freeze-probe: SIGSTOP both runners, then ask the coordinator (via
# healthz runner_leases) whether either holds a job lease. A frozen
# process cannot release a claim, so a positive answer cannot go
# stale — SIGKILLing that runner guarantees the fabric must steal.
# The short settle lets releases already on the wire land first.
runner_leases() { curl -fsS "$BASE/v1/healthz" | grep -o "\"$1\": *[0-9]*" | head -1 | grep -o '[0-9]*$'; }
i=0
while :; do
    kill -STOP "$RPID1" "$RPID2"
    sleep 0.2
    h1=$(runner_leases smoke-r1)
    h2=$(runner_leases smoke-r2)
    if [ "${h1:-0}" -gt 0 ]; then
        victim=$RPID1 vname=smoke-r1 held=$h1
        RPID1=
        kill -CONT "$RPID2"
        break
    fi
    if [ "${h2:-0}" -gt 0 ]; then
        victim=$RPID2 vname=smoke-r2 held=$h2
        RPID2=
        kill -CONT "$RPID1"
        break
    fi
    kill -CONT "$RPID1" "$RPID2"
    if [ "$(job_status "$idc")" = done ]; then
        echo "cluster-smoke: job finished before a runner held a lease (spec too small)" >&2
        exit 1
    fi
    i=$((i + 1))
    if [ "$i" -ge 600 ]; then
        echo "cluster-smoke: no runner ever held a job lease" >&2
        curl -fsS "$BASE/v1/healthz" >&2 || true
        exit 1
    fi
    sleep 0.1
done
kill -9 "$victim"
wait "$victim" 2>/dev/null || true
echo "cluster-smoke: killed $vname while it held $held job lease(s)"

wait_done "$idc"
curl -fsS "$BASE/v1/results/$idc?format=text" >"$DIR/cluster_report.txt"
cmp "$DIR/solo_report.txt" "$DIR/cluster_report.txt"
t3=$(date +%s)
cluster_secs=$((t3 - t2))

leased=$(cluster_field leased_jobs)
stolen=$(cluster_field stolen_jobs)
if [ "${leased:-0}" -le 0 ]; then
    echo "cluster-smoke: coordinator never leased a job to a runner" >&2
    exit 1
fi
if [ "${stolen:-0}" -le 0 ]; then
    echo "cluster-smoke: the killed runner's leases were never stolen" >&2
    curl -fsS "$BASE/v1/healthz" >&2 || true
    exit 1
fi
curl -fsS "$BASE/v1/healthz" | grep -q '"status": "ok"' || {
    echo "cluster-smoke: coordinator unhealthy after runner loss" >&2
    exit 1
}

# Speedup only counts where there are cores to shard across.
if [ "$(nproc 2>/dev/null || echo 1)" -ge 4 ] && [ "$cluster_secs" -gt "$solo_secs" ]; then
    echo "cluster-smoke: sharded run (${cluster_secs}s) slower than solo (${solo_secs}s) on a multi-core host" >&2
    exit 1
fi

echo "cluster-smoke OK: report byte-identical under sharding + runner loss ($leased jobs leased, $stolen stolen; solo ${solo_secs}s, cluster ${cluster_secs}s)"
stop_daemon
kill "$RPID2" 2>/dev/null || true
wait "$RPID2" 2>/dev/null || true
RPID2=
rm -rf "$DIR"
