# Development targets. `make ci` is the gate every change must pass: a gofmt
# check, a full build, vet, bench-check and the test suite under the race
# detector (the allocation pipeline is wrapper-heavy and lock-protected;
# races are a primary failure mode of the resilience layer, the experiment
# engine's cells and the twins of one utility profile run on several
# goroutines, and the serving layer multiplexes sessions across them).
# bench-check vets and short-tests the separately-moduled benchmark under
# bench/, which the root build does not compile; it runs before race so an
# exported name the frozen bench/ needs fails in seconds. fuzz-smoke runs
# every fuzzer for a few seconds after race. ci ends with the
# end-to-end smokes — each one scenario of cmd/rebudget-smoke, which builds
# the daemons once into .bench/bin and boots real processes; each described
# at its target below —
# and bench-smoke, which warns (but does not fail, unless BENCH_STRICT=1) on
# a >10% regression of the market, chip-epoch, aged-trace and victim-scan
# kernels against the newest BENCH_*.json snapshot, and fails when one of
# them does not run. The race run covers the
# stack and cache differential tests by package (internal/trace,
# internal/cache, internal/cmpsim); nothing is listed by name. test and race
# also run internal/lint, the smallness check (DESIGN.md "Smallness check"):
# it fails on any function, method or field no non-test code uses, and on
# any Config field only its defaults set.

GO ?= go

.PHONY: ci fmt build vet test race fuzz-smoke bench-check bench bench-all bench-smoke serve-smoke router-smoke chaos-smoke load-smoke tenant-smoke churn-smoke density-smoke density-ab profile-sim

ci: fmt build vet bench-check race fuzz-smoke serve-smoke router-smoke chaos-smoke load-smoke tenant-smoke churn-smoke density-smoke bench-smoke

# Fails listing every file gofmt would rewrite.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt needed:"; echo "$$out"; exit 1; }

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Each fuzzer for a few seconds beyond its seed corpus: the snapshot decoder
# against arbitrary bytes, the session view's one-pass decoder against
# encoding/json's reflective decode of the same bytes, the create body
# through its strict decode and validation against specs no engine can
# build, the -tenants grammar against non-finite budgets, the mechanism
# grammar against steps whose fairness floor would not resolve to a finite
# value in [0, 1], and the utility's integer-region hull index against
# PWL.Eval, bit for bit. scripts/fuzz_smoke.sh holds the list; it bounds
# input minimization to 1s per input, prints each fuzzer's exec count and
# fails a fuzzer that ran no input past its seed corpus.
fuzz-smoke:
	GO=$(GO) scripts/fuzz_smoke.sh

# bench/ is its own module: root `go build ./...` does not compile it, so a
# Config field or exported name it uses could be removed here and surface
# only when the pipeline runs the benchmark. This keeps deletions honest.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -short ./...

# End-to-end: start rebudgetd on a random port, drive one session through
# 3 epochs via the client, scrape /metrics, assert the counters moved,
# check SIGTERM drains cleanly, then restart against the same snapshot dir
# and assert the session rehydrates with its progress intact.
serve-smoke:
	$(GO) run ./cmd/rebudget-smoke serve

# End-to-end tenancy: one rebudgetd with -tenants armed; an idle and a
# saturated tenant must go through a full lend-then-reclaim cycle under
# live loadgen traffic, observed via the per-tenant gauges.
tenant-smoke:
	$(GO) run ./cmd/rebudget-smoke tenant

# End-to-end sharding: two rebudgetd shards sharing a snapshot dir behind a
# rebudget-router; 8 sessions placed, one shard killed mid-traffic, all
# sessions must fail over and resume warm on the survivor.
router-smoke:
	$(GO) run ./cmd/rebudget-smoke router

# End-to-end chaos: the internal/chaos/soak run — scripted partitions, a
# shard kill/restart, a latency spike, snapshot corruption and a mid-outage
# shard add against a live in-process two-shard tier, asserting zero lost
# sessions, bit-identity to an undisturbed baseline, a bounded error rate
# and breaker/checksum activity in /metrics. CHAOS_SEED overrides the seed
# (default 7); schedule determinism per seed is a unit test in internal/chaos.
chaos-smoke:
	$(GO) run ./cmd/rebudget-smoke chaos

# Key benchmarks (equilibrium engine, ReBudget, simulation, cache substrate)
# recorded as a dated JSON snapshot: BENCH_<yyyymmdd>.json.
bench:
	scripts/bench_record.sh

# Every benchmark once — a smoke test that the kernels still run, not a
# measurement.
bench-all:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

bench-smoke:
	scripts/bench_smoke.sh

# End-to-end elastic membership: a snapstore, four shards (two in the ring,
# two standing by) and two gossiping routers; grow 2 -> 4 -> 2 through the
# authenticated admin API under live loadgen traffic, asserting
# zero lost sessions, zero loadgen errors, membership/migration/gossip
# counters on both routers, and warm restores through the snapstore.
# CHURN_DURATION overrides the load window (default 16s).
churn-smoke:
	$(GO) run ./cmd/rebudget-smoke churn

# Scaled-down load-harness smoke: two shards behind a router driven by
# internal/loadgen (~20s total), asserting nonzero throughput, zero errors,
# a bounded 429 rate, and the weighted admission gauges in /metrics.
# LOAD_DURATION overrides the measured window (default 15s).
load-smoke:
	$(GO) run ./cmd/rebudget-smoke load

# High-density serving smoke: one shard, 10k resident sessions created
# through the loadgen's density mode with the API key armed. Asserts a
# bounded create flood, zero tick errors, a sub-250ms full-population
# /metrics scrape with no per-session-id series, and the hibernation sweep
# parking >=95% of the idle population, and wake-on-touch through auth.
# DENSITY_RESIDENT scales it down for slower machines.
density-smoke:
	$(GO) run ./cmd/rebudget-smoke density

# The 100k-resident density measurement: four shards behind a router,
# DENSITY_RESIDENT (default 100000) sessions created and open-loop ticked
# through a rotating working set. Report (tick percentiles, create rate,
# scrape time, per-shard parked counts and RSS) lands in .bench/density.json
# and is folded into the next dated BENCH_*.json by scripts/bench_record.sh.
# A measurement run, not a CI gate.
density-ab:
	$(GO) run ./cmd/rebudget-smoke density-ab

# CPU profile of the end-to-end detailed simulation — the starting point for
# hot-path work. Leaves sim.cpu.prof and the sim.test binary behind:
#   go tool pprof sim.test sim.cpu.prof
profile-sim:
	$(GO) test -run '^$$' -bench '^BenchmarkFig5Simulation$$' -benchtime 5x -cpuprofile sim.cpu.prof -o sim.test .
