#!/bin/sh
# bench_record.sh — run the key benchmarks and record them as a dated JSON
# snapshot (BENCH_<yyyymmdd>.json) so perf trajectories across changes can
# be diffed without keeping raw `go test -bench` logs around.
#
# Kernels (sub-100 ms per op) run for a duration, so a 0.5 ms equilibrium is
# sampled a few hundred times rather than ten, and five times over: the
# snapshot records the median ns/op of the five and their spread,
# (max-min)/median, so a reader can tell a 5 % move from noise. The benches
# at or above ~100 ms per op stay iteration-counted single samples, as does
# the resident-bytes census.
#
# A second snapshot on one day gets a letter (BENCH_<yyyymmdd>b.json), which
# sorts after the first, so a committed snapshot is never overwritten.
#
# Usage: scripts/bench_record.sh [kernel-benchtime]   (default 300ms)
set -eu

cd "$(dirname "$0")/.."
BENCHTIME="${1:-300ms}"
COUNT=5
STEM="BENCH_$(date +%Y%m%d)"
OUT="$STEM.json"
for suffix in b c d e f g h; do
    [ -e "$OUT" ] || break
    OUT="$STEM$suffix.json"
done
KEY='^(BenchmarkMarketEquilibrium8|BenchmarkMarketEquilibrium64|BenchmarkMarketEquilibrium64Distinct|BenchmarkReBudget64|BenchmarkNewSetup64|BenchmarkNewSetup64Custom|BenchmarkSweepOp64|BenchmarkEnvyFreeness64|BenchmarkUtilityValueMiss|BenchmarkCacheAccess|BenchmarkCacheVictim|BenchmarkTraceGenerateAged|BenchmarkChipEpoch8|BenchmarkServeEpoch|BenchmarkRouterRelay64|BenchmarkClientDecode64|BenchmarkTenantRebalance|BenchmarkTenantFrontier)$'
SLOWKEY='^(BenchmarkFig5Simulation|BenchmarkChipEpoch64|BenchmarkSweepSerial|BenchmarkSweepParallel)$'
PWRKEY='^BenchmarkFreqAtPower$'
SRVKEY='^(BenchmarkStoreParallelGet|BenchmarkStoreParallelAdd|BenchmarkMetricsRender50k)$'
CENSUSKEY='^BenchmarkResidentSessionBytes$'

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench "$KEY" -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$RAW"
go test -run '^$' -bench "$SLOWKEY" -benchtime 10x . | tee -a "$RAW"
go test -run '^$' -bench "$PWRKEY" -benchtime "$BENCHTIME" -count "$COUNT" ./internal/power | tee -a "$RAW"
# The density benches live in the server package and are sampled like the
# kernels: one iteration of a 9 µs store lookup is a cold-start reading, not
# a number. BenchmarkResidentSessionBytes alone is a census, not a loop — one
# iteration is the measurement.
go test -run '^$' -bench "$SRVKEY" -benchtime "$BENCHTIME" -count "$COUNT" ./internal/server | tee -a "$RAW"
go test -run '^$' -bench "$CENSUSKEY" -benchtime 1x ./internal/server | tee -a "$RAW"

# Parse "BenchmarkName-N  iters  123 ns/op  45 B/op  6 allocs/op  7.0 rounds/op"
# into one JSON object per benchmark, in order of first appearance. A
# benchmark sampled more than once records its median ns/op, the sample
# count and the spread; the other columns repeat exactly and come from the
# last sample.
awk -v date="$(date +%Y-%m-%d)" '
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    if (!(name in n)) order[++names] = name
    iters[name] = $2
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op") ns[name, ++n[name]] = $i
        if ($(i+1) == "B/op") bytes[name] = $i
        if ($(i+1) == "allocs/op") allocs[name] = $i
        if ($(i+1) == "rounds/op") rounds[name] = $i
        if ($(i+1) == "bytes/session") bsession[name] = $i
    }
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"benchmarks\": [\n", date
    for (k = 1; k <= names; k++) {
        name = order[k]; m = n[name]
        for (i = 1; i <= m; i++) v[i] = ns[name, i] + 0
        for (i = 2; i <= m; i++)
            for (j = i; j > 1 && v[j-1] > v[j]; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
        if (k > 1) printf ",\n"
        printf "    {\"name\": \"%s\", \"iters\": %s", name, iters[name]
        if (m == 1) printf ", \"ns_per_op\": %s", ns[name, 1]
        if (m > 1) {
            med = (m % 2) ? v[(m+1)/2] : (v[m/2] + v[m/2+1]) / 2
            printf ", \"ns_per_op\": %.10g, \"samples\": %d, \"spread\": %.3f", med, m, (v[m] - v[1]) / med
        }
        if (name in bytes) printf ", \"bytes_per_op\": %s", bytes[name]
        if (name in allocs) printf ", \"allocs_per_op\": %s", allocs[name]
        if (name in rounds) printf ", \"rounds_per_op\": %s", rounds[name]
        if (name in bsession) printf ", \"bytes_per_session\": %s", bsession[name]
        printf "}"
    }
    print "\n  ]"
}
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
