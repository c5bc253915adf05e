#!/usr/bin/env sh
# bench.sh — run the Table 5 + parallel-scaling benchmarks and record
# the results as BENCH_<date>.json in the repo root, seeding the perf
# trajectory EXPERIMENTS.md tracks.
#
# Usage:
#   scripts/bench.sh            full run (benchtime 3x, stable numbers)
#   scripts/bench.sh --short    CI smoke run (benchtime 1x, fast)
#
# The JSON is a list of {benchmark, ns_op, b_op, allocs_op, metrics{}}
# rows parsed from `go test -bench` output, plus a final PeakRSS row
# with the bench process's peak resident set (VmHWM), a MetricsSnapshot
# row holding the observability registry's final counter values from a
# real CLI run, and a JobServerSmoke row timing a CCEH run submitted
# through the job server's REST API against the direct engine; the raw output is kept next to it
# as BENCH_<date>.txt. The PeakRSS row survives a failed or degraded
# bench run — only the live rows need a working build.
set -eu

cd "$(dirname "$0")/.."

benchtime=3x
# The memmodel micro-benchmarks (internal/memmodel/bench_test.go:
# BenchmarkLoadByte/{s1,s8,s64,m4}, BenchmarkCommitStore, BenchmarkFlush,
# BenchmarkReset) are nanosecond-scale ops named like cxlbench's
# memmodel.* ledger rows; they run by time, not by count, except in CI.
microtime=1s
pattern='BenchmarkTable5|BenchmarkParallelScaling|BenchmarkFigure|BenchmarkObsOverhead'
if [ "${1:-}" = "--short" ]; then
    benchtime=1x
    microtime=1x
    pattern='BenchmarkTable5/CCEH$|BenchmarkTable5/CCEH_ReductionOff$|BenchmarkTable5/CCEH_RaceDetectOff$|BenchmarkParallelScaling|BenchmarkFigure3|BenchmarkObsOverhead'
fi

date="$(date +%Y%m%d)"
txt="BENCH_${date}.txt"
json="BENCH_${date}.json"

# Compile the test binary and run it directly: polling VmHWM on `go
# test` itself would measure the toolchain, not the checker. VmHWM is
# the kernel's own high-water mark, so one late sample per poll is
# exact, not a race.
bin="$(mktemp "${TMPDIR:-/tmp}/cxlmc-bench.XXXXXX")"
trap 'rm -f "$bin"' EXIT
go test -c -o "$bin" .

"$bin" -test.run '^$' -test.bench "$pattern" -test.benchtime "$benchtime" -test.benchmem > "$txt" 2>&1 &
pid=$!
peak=0
while kill -0 "$pid" 2>/dev/null; do
    rss="$(awk '/^VmHWM:/{print $2}' "/proc/$pid/status" 2>/dev/null || true)"
    [ -n "$rss" ] && peak="$rss"
    sleep 0.1
done
# A failed or degraded bench run must still produce the JSON: the peak
# RSS is already measured by now, and a partial row set beats losing the
# file (the failure still fails the script, after the write).
status=0
wait "$pid" || status=$?
go test -run '^$' -bench . -benchtime "$microtime" ./internal/memmodel >> "$txt" 2>&1 || status=$?
cat "$txt"

# Convert the benchmark lines to JSON. Format of a line:
#   BenchmarkName-8  N  1234 ns/op  56 B/op  7 allocs/op  8.0 execs ...
awk -v peak="$peak" '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bop = ""; allocs = ""; metrics = ""
    for (i = 3; i < NF; i++) {
        unit = $(i + 1)
        if (unit == "ns/op") ns = $i
        else if (unit == "B/op") bop = $i
        else if (unit == "allocs/op") allocs = $i
        else if (unit ~ /^[a-z-]+$/ && $i ~ /^[0-9.]+$/) {
            # Metric units use dashes (Go unit syntax); JSON keys use
            # underscores (execs-per-exploration -> execs_per_exploration).
            key = unit
            gsub(/-/, "_", key)
            if (metrics != "") metrics = metrics ","
            metrics = metrics "\"" key "\":" $i
        }
    }
    if (ns == "") next
    if (!first) print ","
    first = 0
    printf "  {\"benchmark\":\"%s\",\"ns_op\":%s", name, ns
    if (bop != "") printf ",\"b_op\":%s", bop
    if (allocs != "") printf ",\"allocs_op\":%s", allocs
    printf ",\"metrics\":{%s}}", metrics
}
END {
    if (!first) print ","
    printf "  {\"benchmark\":\"PeakRSS\",\"metrics\":{\"peak_rss_kb\":%s}}", peak
}
' "$txt" > "$json"

# The live rows below need a working build; on a failed bench run just
# close the array so the JSON (with its PeakRSS row) stays well-formed.
if [ "$status" -eq 0 ]; then
    cli="$(mktemp "${TMPDIR:-/tmp}/cxlmc-cli.XXXXXX")"
    snap="$(mktemp "${TMPDIR:-/tmp}/cxlmc-snap.XXXXXX")"
    trap 'rm -f "$bin" "$cli" "$snap"' EXIT
    go build -o "$cli" ./cmd/cxlmc

    # A live metrics snapshot from a real CLI run — the same counters
    # /metrics would serve, captured via -metrics-snapshot.
    "$cli" -bench CCEH -max-execs 2000 -workers 2 -metrics-snapshot "$snap" > /dev/null
    {
        printf ',\n  {"benchmark":"MetricsSnapshot","metrics":'
        tr -d '\n ' < "$snap"
        printf '}'
    } >> "$json"

    # Checking-as-a-service overhead: the Table 5 CCEH run submitted
    # through the job server's REST API (submit -wait) next to the same
    # run straight through the engine. The delta is the cost of the
    # journal, checkpoint plumbing and HTTP round trips.
    jdir="$(mktemp -d "${TMPDIR:-/tmp}/cxlmc-jobs.XXXXXX")"
    jerr="$(mktemp "${TMPDIR:-/tmp}/cxlmc-jerr.XXXXXX")"
    jout="$(mktemp "${TMPDIR:-/tmp}/cxlmc-jout.XXXXXX")"
    trap 'rm -rf "$bin" "$cli" "$snap" "$jdir" "$jerr" "$jout"' EXIT
    now_ms() { date +%s%3N; }
    t0="$(now_ms)"
    "$cli" -bench CCEH -bugs 0x1 -continue > /dev/null || true
    direct_ms=$(( $(now_ms) - t0 ))
    "$cli" -jobserver 127.0.0.1:0 -jobs-dir "$jdir" 2> "$jerr" &
    jpid=$!
    jaddr=""
    tries=0
    while [ "$tries" -lt 100 ]; do
        jaddr="$(sed -n 's/^cxlmc: job server on \([^ ]*\).*/\1/p' "$jerr")"
        [ -n "$jaddr" ] && break
        kill -0 "$jpid" 2>/dev/null || break
        tries=$((tries + 1))
        sleep 0.1
    done
    if [ -n "$jaddr" ]; then
        t0="$(now_ms)"
        "$cli" submit -addr "$jaddr" -bench CCEH -bugs 0x1 -continue -race-detect on \
            -wait > "$jout" || true
        api_ms=$(( $(now_ms) - t0 ))
        job_execs="$(sed -n 's/.*"Executions": \([0-9]*\),.*/\1/p' "$jout" | head -1)"
        kill -TERM "$jpid" 2>/dev/null || true
        wait "$jpid" 2>/dev/null || true
        if [ -n "$job_execs" ]; then
            printf ',\n  {"benchmark":"JobServerSmoke","metrics":{"executions":%s,"api_ms":%s,"direct_ms":%s}}' \
                "$job_execs" "$api_ms" "$direct_ms" >> "$json"
        else
            echo "warning: job server smoke produced no parseable result; row skipped" >&2
        fi
    else
        kill "$jpid" 2>/dev/null || true
        echo "warning: job server never reported its address; JobServerSmoke row skipped" >&2
    fi
fi
printf '\n]\n' >> "$json"

echo "wrote $txt and $json (peak RSS ${peak} kB)"
exit "$status"
