#!/bin/sh
# bench.sh — run the Figure-7 identification benchmarks (E1: complete vs
# temporal vs temporal+sketch) with allocation reporting and write them to
# BENCH_identify.json, one object per execution mode with ns/op, B/op,
# allocs/op and comparisons/op. EXPERIMENTS.md E1 quotes that file.
#
# Usage:
#   scripts/bench.sh            # full run (benchtime from go defaults)
#   scripts/bench.sh --smoke    # one iteration per mode, written to
#                               # BENCH_identify.smoke.json (CI: the
#                               # benchmarks still run and report)
#
# Every other perf number is stated against bench/ (BENCHMARK.json).
set -eu

cd "$(dirname "$0")/.."

BENCHTIME=""
OUT="BENCH_identify.json"
if [ "${1:-}" = "--smoke" ]; then
    BENCHTIME="-benchtime=1x"
    OUT="BENCH_identify.smoke.json"
fi

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

# shellcheck disable=SC2086  # BENCHTIME is deliberately word-split
go test -run '^$' -bench 'BenchmarkE1_PerformanceVsEvents(Complete|Temporal|TemporalSketch)$' \
    -benchmem $BENCHTIME . | tee "$TMP"

# Parse "BenchmarkName-N  iters  123 ns/op  45 B/op  6 allocs/op  7 comparisons/op ..."
# into JSON. Metrics appear as value/unit pairs after the iteration count.
awk '
/^BenchmarkE1_PerformanceVsEvents/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = bytes = allocs = cmps = "null"
    for (i = 3; i < NF; i++) {
        if ($(i + 1) == "ns/op")          ns = $i
        if ($(i + 1) == "B/op")           bytes = $i
        if ($(i + 1) == "allocs/op")      allocs = $i
        if ($(i + 1) == "comparisons/op") cmps = $i
    }
    rows[++n] = sprintf("  {\"benchmark\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"comparisons_per_op\": %s}", name, ns, bytes, allocs, cmps)
}
END {
    print "["
    for (i = 1; i <= n; i++) print rows[i] (i < n ? "," : "")
    print "]"
}
' "$TMP" > "$OUT"

echo "==> wrote $OUT"
cat "$OUT"
