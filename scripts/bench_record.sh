#!/bin/sh
# bench_record.sh — run the key benchmarks and record them as a dated JSON
# snapshot (BENCH_<yyyymmdd>.json) so perf trajectories across changes can
# be diffed without keeping raw `go test -bench` logs around.
#
# Kernels (sub-100 ms per op) run for a duration, so a 0.5 ms equilibrium is
# sampled a few hundred times rather than ten; the benches at or above
# ~100 ms per op stay iteration-counted.
#
# Usage: scripts/bench_record.sh [kernel-benchtime]   (default 300ms)
set -eu

cd "$(dirname "$0")/.."
BENCHTIME="${1:-300ms}"
OUT="BENCH_$(date +%Y%m%d).json"
KEY='^(BenchmarkMarketEquilibrium8|BenchmarkMarketEquilibrium64|BenchmarkMarketEquilibrium64Serial|BenchmarkReBudget64|BenchmarkUtilityValueMiss|BenchmarkCacheAccess|BenchmarkChipEpoch8|BenchmarkServeEpoch|BenchmarkTenantRebalance|BenchmarkTenantFrontier)$'
SLOWKEY='^(BenchmarkFig5Simulation|BenchmarkChipEpoch64|BenchmarkSweepSerial|BenchmarkSweepParallel)$'
PWRKEY='^BenchmarkFreqAtPower$'

SRVKEY='^(BenchmarkStoreParallelGet|BenchmarkStoreParallelAdd|BenchmarkMetricsRender50k|BenchmarkResidentSessionBytes)$'

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench "$KEY" -benchtime "$BENCHTIME" . | tee "$RAW"
go test -run '^$' -bench "$SLOWKEY" -benchtime 10x . | tee -a "$RAW"
go test -run '^$' -bench "$PWRKEY" -benchtime "$BENCHTIME" ./internal/power | tee -a "$RAW"
# The density benches live in the server package. BenchmarkResidentSessionBytes
# is a census, not a loop — one iteration is the measurement.
go test -run '^$' -bench "$SRVKEY" -benchtime 1x ./internal/server | tee -a "$RAW"

# Parse "BenchmarkName-N  iters  123 ns/op  45 B/op  6 allocs/op  7.0 rounds/op"
# into one JSON object per benchmark.
awk -v date="$(date +%Y-%m-%d)" '
BEGIN { print "{"; printf "  \"date\": \"%s\",\n  \"benchmarks\": [\n", date }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""; rounds = ""; bsession = ""
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
        if ($(i+1) == "rounds/op") rounds = $i
        if ($(i+1) == "bytes/session") bsession = $i
    }
    if (count++) printf ",\n"
    printf "    {\"name\": \"%s\", \"iters\": %s", name, $2
    if (ns != "") printf ", \"ns_per_op\": %s", ns
    if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    if (rounds != "") printf ", \"rounds_per_op\": %s", rounds
    if (bsession != "") printf ", \"bytes_per_session\": %s", bsession
    printf "}"
}
END { print "\n  ]" }
' "$RAW" > "$OUT"

# Fold the newest density run (written by `make density-ab`) into the
# snapshot, so serving-tier numbers ride alongside the kernel numbers.
# Skipped when no density run has been recorded.
if [ -f .bench/density.json ]; then
    {
        printf ',\n  "density": '
        sed 's/^/  /;1s/^ *//' .bench/density.json | sed '${/^ *$/d}'
    } >> "$OUT"
    echo "folded density report into $OUT"
fi
printf '}\n' >> "$OUT"

echo "wrote $OUT"
