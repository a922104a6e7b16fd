#!/bin/sh
# bench_smoke.sh — perf smoke test for `make ci`.
#
# Runs the load-bearing kernels — BenchmarkMarketEquilibrium64 (the hot
# allocation solver, ~57 classes) and the three the class collapse rests on:
# BenchmarkMarketEquilibrium64Distinct (the same solver with every identity
# hidden — the per-player cost), BenchmarkNewSetup64 (profiling a bundle) and
# BenchmarkEnvyFreeness64 (the view refresh); BenchmarkFig5Simulation (the
# end-to-end detailed simulation), BenchmarkChipEpoch8/64 (the single-chip
# epoch hot path) and its two kernels in their aged state,
# BenchmarkTraceGenerateAged (the LRU reuse stack after 2 M draws — it once
# decayed into two-entry chunks, which only an aged run shows) and
# BenchmarkCacheVictim (the victim scan); and the serving side:
# BenchmarkServeEpoch (an in-process epoch), BenchmarkTenantRebalance,
# BenchmarkStoreParallelGet (the session-store lookup every request takes) and
# BenchmarkMetricsRender50k/default (the scrape) —
# and compares each against the most recent recorded snapshot: the newest
# BENCH_*.json written by scripts/bench_record.sh, falling back to
# .bench/baseline.txt when no snapshot exists (the first snapshot then gets
# recorded from this run's numbers). A benchmark missing from the snapshot
# is skipped, so older snapshots stay usable after new benches are added.
#
# A benchmark that fails to run, or prints no ns/op, fails the target
# whatever BENCH_STRICT says: a smoke that compared nothing must not pass.
# A >10% ns/op regression prints a loud warning. By default that never fails
# the build: benchmarks on shared/loaded CI hosts are too noisy to gate on,
# and the warning is the signal a human should re-measure on quiet hardware.
# Set BENCH_STRICT=1 to turn the warning into a non-zero exit — for quiet
# perf-qualification machines where the numbers are trustworthy:
#
#   BENCH_STRICT=1 make bench-smoke
#
# Refresh the reference after an intentional perf change:
#   scripts/bench_record.sh        # writes a new dated BENCH_*.json
set -u

cd "$(dirname "$0")/.."
NAMES='BenchmarkMarketEquilibrium64 BenchmarkMarketEquilibrium64Distinct BenchmarkNewSetup64 BenchmarkEnvyFreeness64 BenchmarkFig5Simulation BenchmarkChipEpoch8 BenchmarkChipEpoch64 BenchmarkTraceGenerateAged BenchmarkCacheVictim BenchmarkServeEpoch BenchmarkTenantRebalance BenchmarkStoreParallelGet BenchmarkMetricsRender50k/default'
# Sub-millisecond kernels, the server group included, run for a duration (5
# iterations of a 0.5 ms equilibrium is a 2.5 ms sample, of a 9 µs store
# lookup a cold start); the ≥ 100 ms benches stay at 5 iterations.
BENCH='^(BenchmarkMarketEquilibrium64|BenchmarkMarketEquilibrium64Distinct|BenchmarkNewSetup64|BenchmarkEnvyFreeness64|BenchmarkChipEpoch8|BenchmarkTraceGenerateAged|BenchmarkCacheVictim|BenchmarkServeEpoch|BenchmarkTenantRebalance)$'
SLOWBENCH='^(BenchmarkFig5Simulation|BenchmarkChipEpoch64)$'
SRVBENCH='^(BenchmarkStoreParallelGet|BenchmarkMetricsRender50k)$'
DIR=.bench
BASE="$DIR/baseline.txt"
CUR="$DIR/current.txt"
STRICT="${BENCH_STRICT:-0}"
mkdir -p "$DIR"

if ! { go test -run '^$' -bench "$BENCH" -benchtime 300ms -count 3 . &&
    go test -run '^$' -bench "$SLOWBENCH" -benchtime 5x -count 3 .; } > "$CUR" 2>&1; then
    echo "bench-smoke: benchmark failed to run:"
    cat "$CUR"
    exit 1
fi
if ! go test -run '^$' -bench "$SRVBENCH" -benchtime 300ms -count 3 ./internal/server >> "$CUR" 2>&1; then
    echo "bench-smoke: server benchmarks failed to run:"
    cat "$CUR"
    exit 1
fi

# Reference source: the newest dated snapshot, else the legacy text baseline.
latest=$(ls BENCH_*.json 2>/dev/null | sort | tail -1)
if [ -z "$latest" ] && [ ! -f "$BASE" ]; then
    cp "$CUR" "$BASE"
    echo "bench-smoke: no prior snapshot; recorded baseline in $BASE (run scripts/bench_record.sh for a dated one)"
    exit 0
fi

if command -v benchstat >/dev/null 2>&1 && [ -f "$BASE" ]; then
    echo "bench-smoke: benchstat baseline vs current"
    benchstat "$BASE" "$CUR" || true
fi

fail=0
broken=0
for NAME in $NAMES; do
    # Mean ns/op of the fresh run.
    # Note: go omits the -N procs suffix from the name when GOMAXPROCS is 1.
    new=$(awk -v name="$NAME" '$1 ~ "^" name "(-[0-9]+)?$" { s += $3; n++ } END { if (n) printf "%.0f", s / n }' "$CUR")
    if [ -z "$new" ]; then
        echo "bench-smoke: $NAME: could not parse ns/op from this run"
        broken=1
        continue
    fi

    old=""
    src=""
    if [ -n "$latest" ]; then
        old=$(tr ',' '\n' < "$latest" | awk -v name="$NAME" '
            $0 ~ "\"name\": \"" name "\"" { found = 1 }
            found && /"ns_per_op"/ { gsub(/[^0-9.]/, "", $0); print; exit }')
        src="$latest"
    elif [ -f "$BASE" ]; then
        old=$(awk -v name="$NAME" '$1 ~ "^" name "(-[0-9]+)?$" { s += $3; n++ } END { if (n) printf "%.0f", s / n }' "$BASE")
        src="$BASE"
    fi
    if [ -z "$old" ]; then
        echo "bench-smoke: $NAME: not in $src; skipping (re-run scripts/bench_record.sh to include it)"
        continue
    fi

    echo "bench-smoke: $NAME mean ns/op: reference $old ($src), current $new"
    regressed=$(awk -v old="$old" -v new="$new" 'BEGIN { print (new > old * 1.10) ? 1 : 0 }')
    if [ "$regressed" = "1" ]; then
        awk -v name="$NAME" -v old="$old" -v new="$new" 'BEGIN {
            printf "bench-smoke: WARNING: %s regressed %.1f%% (>10%%); re-measure on quiet hardware\n",
                name, (new / old - 1) * 100
        }'
        fail=1
    else
        echo "bench-smoke: $NAME within 10% of reference"
    fi
done

if [ "$broken" = "1" ]; then
    echo "bench-smoke: a benchmark did not run; failing"
    exit 1
fi
if [ "$fail" = "1" ] && [ "$STRICT" = "1" ]; then
    echo "bench-smoke: BENCH_STRICT=1 set; failing"
    exit 1
fi
exit 0
