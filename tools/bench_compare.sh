#!/bin/sh
# bench_compare.sh <raw-bench-output.txt> — warn-only trajectory check:
# compares a fresh `go test -bench` run against the newest committed
# bench/BENCH_*.json and prints per-benchmark deltas for ns/op and for
# every custom b.ReportMetric column, flagging regressions beyond each
# metric's noise threshold. Always exits 0 — single-iteration smoke
# runs on shared CI machines are far too noisy to gate a merge; the
# point is that a regression is *visible* in the job log, not that it
# blocks.
#
# Metrics fall into two classes with different thresholds:
#   - timing/throughput (ns/op, replicas/s, jobs/s): machine-dependent,
#     so only deltas past 25% are flagged;
#   - figure result metrics (kbps, %saving@T100, TS@..., fail@...):
#     fully seed-determined, so ANY drift beyond float formatting
#     means the simulation's behaviour changed and is flagged.
#
# The checkpoint-fork rows (BenchmarkCheckpointFork/*) are
# timing-class for every unit — their custom metrics (including
# replicas/s) are throughputs that scale with the iteration count, so
# the result-metric gate would false-positive.
# A benchmark absent from the baseline prints as "(new)" instead of
# warning: first appearance is not a regression.
#
# If benchstat is available the raw benchstat comparison is appended
# (the committed JSON preserves benchmark-format lines for exactly
# this), but the awk delta table never requires it.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 <raw-bench-output.txt>" >&2
    exit 2
fi
# Resolve before the cd below so relative paths keep working from any
# invocation directory.
case $1 in
/*) new_raw=$1 ;;
*) new_raw=$(pwd)/$1 ;;
esac
cd "$(dirname "$0")/.."

# Newest snapshot by commit date, not filename: the snapshots are named
# by short commit hash, so lexicographic order is meaningless. Fall back
# to file mtime outside a git checkout.
pick_newest() {
    if git rev-parse --git-dir >/dev/null 2>&1; then
        for f in "$@"; do
            printf '%s %s\n' "$(git log -1 --format=%ct -- "$f" 2>/dev/null || echo 0)" "$f"
        done | sort -n | tail -1 | cut -d' ' -f2-
    else
        ls -1t "$@" | head -1
    fi
}
base=""
clean=$(ls -1 bench/BENCH_*.json 2>/dev/null | grep -v -- '-dirty' || true)
if [ -n "$clean" ]; then
    # shellcheck disable=SC2086
    base=$(pick_newest $clean)
elif ls bench/BENCH_*.json >/dev/null 2>&1; then
    base=$(pick_newest bench/BENCH_*.json)
fi
if [ -z "$base" ]; then
    echo "bench_compare: no committed bench/BENCH_*.json baseline; skipping"
    exit 0
fi
echo "bench_compare: baseline $base"

old_lines=$(mktemp)
trap 'rm -f "$old_lines"' EXIT
# Extract the preserved benchmark-format lines from the JSON without
# requiring jq: each line entry is a quoted string in the "lines" array.
awk '
/"lines": \[/ { in_lines = 1; next }
in_lines && /^  \]/ { in_lines = 0 }
in_lines {
    s = $0
    sub(/^[ ]*"/, "", s); sub(/",?$/, "", s)
    gsub(/\\t/, "\t", s); gsub(/\\"/, "\"", s); gsub(/\\\\/, "\\", s)
    print s
}' "$base" > "$old_lines"

# Join old and new per (benchmark, metric unit) and print the delta
# table: ns/op first, then every custom metric column the new run
# reports. go's benchmark line format is `Name iterations v1 unit1 v2
# unit2 ...`, so value/unit pairs start at field 3.
awk '
/^Benchmark/ && NF >= 2 {
    name = $1
    for (i = 3; i + 1 <= NF; i += 2) {
        u = $(i + 1)
        if (FILENAME == ARGV[1]) { old[name SUBSEP u] = $i }
        else {
            new[name SUBSEP u] = $i
            if (!(name in seen)) { order[n++] = name; seen[name] = 1 }
            if (!((name SUBSEP u) in useen)) { units[name] = units[name] u "\n"; useen[name, u] = 1 }
        }
    }
}
END {
    printf "%-52s %14s %14s %8s\n", "benchmark", "old", "new", "delta"
    warned = 0
    for (i = 0; i < n; i++) {
        name = order[i]
        m = split(units[name], us, "\n")
        shown = 0
        for (j = 1; j <= m; j++) {
            u = us[j]
            if (u == "") continue
            o = old[name SUBSEP u]
            w = new[name SUBSEP u]
            if (w == "") continue
            if (o == "" || o + 0 == 0) {
                # First appearance of a benchmark/metric: informational,
                # never a warning. The next committed snapshot becomes
                # its baseline.
                label = name
                if (shown) label = ""
                shown = 1
                printf "%-52s %14s %14.3f %8s %s (new benchmark; no baseline)\n", label, "-", w, "", u
                continue
            }
            d = (w - o) / o * 100
            flag = ""
            timing = (u == "ns/op" || u == "replicas/s" || u == "jobs/s")
            # Checkpoint-fork rows: timing-class thresholds for any unit.
            if (name ~ /^BenchmarkCheckpointFork/) timing = 1
            if (timing) {
                # Smoke runs are single-iteration: only yell past 25%.
                if (u == "replicas/s" || u == "jobs/s") {
                    if (d < -25) { flag = "  <-- fewer " u; warned = 1 }
                } else if (d > 25 || d < -25) {
                    if (u == "ns/op") { if (d > 25) { flag = "  <-- slower"; warned = 1 } }
                    else { flag = "  <-- timing moved"; warned = 1 }
                }
            } else {
                # Custom figure metrics are seed-determined results, not
                # timings: any drift beyond float-print noise means the
                # simulation produced different numbers.
                if (d > 0.05 || d < -0.05) { flag = "  <-- result metric drifted"; warned = 1 }
            }
            label = name
            if (shown) label = ""
            shown = 1
            printf "%-52s %14.3f %14.3f %+7.1f%% %s%s\n", label, o, w, d, u, flag
        }
    }
    if (warned) print "\nbench_compare: WARNING - regression or result drift vs committed baseline (warn-only; see deltas above)"
    else print "\nbench_compare: no timing regression beyond 25%, no result-metric drift"
}' "$old_lines" "$new_raw"

if command -v benchstat >/dev/null 2>&1; then
    echo
    echo "--- benchstat ---"
    benchstat "$old_lines" "$new_raw" || true
fi
exit 0
