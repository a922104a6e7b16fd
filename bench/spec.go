package main

// metricSpec names one reported number. BENCHMARK.json at the repository
// root lists the same names, units and directions; spec_test.go keeps the
// two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: the share by which it may worsen
}

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const defaultSeconds = 15

// endToEnd is what a user of the system waits for or pays, reported by every
// workload. Failures are not a metric of this list because a metric that is
// 0 on a healthy tree has no relative bound: they travel as the result's
// attempted/failed counts and print as failed_share.
//
// The bounds are three times the spread between the quartiles of ten runs on
// ten seeds on the two-core sandbox this was sized on, where the quietest
// workload's throughput alone moved 11 % between two batches an hour apart.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"op_p50_ms", "ms", "lower", 0.15},
	{"op_p90_ms", "ms", "lower", 0.20},
	{"alloc_kb_per_op", "kB", "lower", 0.03},
}

// workloadSpec is one set of inputs; why says which layers it loads and
// which it bypasses, which is what makes a layer's gain attributable.
type workloadSpec struct {
	Name string
	Why  string
	new  func(seed uint64, tr *tracer) (instance, error)
}

var workloads = []workloadSpec{
	{"sweep64", "paper phase 1: profile a 64-core bundle and run 4 market mechanisms; market/core/app do all the work, serving none", newSweep64},
	{"chipsim8", "paper phase 2: 8-core chip epochs under ReBudget-20; cmpsim/cache/trace/dram do ~94% of the work, the market ~6%", newChipsim8},
	{"serve_light", "router to 2 shards, 8-core equal-share epochs, 2 clients: no equilibrium, so router+server+client/net-http are the whole cost", newServeLight},
	{"serve_heavy", "telemetry then 64-core ReBudget-20 epoch through the router: market-bound, the monitor-then-reallocate loop of section 4.3", newServeHeavy},
	{"serve_lifecycle", "create, 3 epochs, evict, rehydrating epoch, get, delete: engine build and snapshot encode/decode instead of the steady path", newServeLifecycle},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// perLayer lists every single-layer number the traced run reports. Times
// are nearest-rank medians over the call count recorded beside them in the
// run file; "count" metrics are exact and must repeat from run to run.
var perLayer = []metricSpec{
	// market: should move sweep64 and serve_heavy, nothing on serve_light.
	{"market.eq8_cold_us", "us", "lower", 0},
	{"market.eq64_cold_us", "us", "lower", 0},
	{"market.eq64_warm_us", "us", "lower", 0},
	{"market.eq64_serial_us", "us", "lower", 0},
	{"market.parallel_speedup64", "x", "higher", 0},
	{"market.eq64_rounds", "count", "lower", 0},
	{"market.eq64_bid_steps", "count", "lower", 0},
	{"market.eq64_allocs", "count", "lower", 0},
	{"market.not_converged", "count", "lower", 0},
	// core: sweep64.
	{"core.equalshare64_us", "us", "lower", 0},
	{"core.equalbudget64_ms", "ms", "lower", 0},
	{"core.balanced64_ms", "ms", "lower", 0},
	{"core.rebudget20_64_ms", "ms", "lower", 0},
	{"core.rebudget40_64_ms", "ms", "lower", 0},
	{"core.maxeff64_ms", "ms", "lower", 0},
	{"core.rebudget20_eq_runs", "count", "lower", 0},
	{"core.rebudget20_rounds", "count", "lower", 0},
	{"core.rebudget_self_share", "share", "lower", 0},
	{"core.resilient_overhead_us", "us", "lower", 0},
	// workload / app: sweep64 ops, serve_lifecycle creates and rehydrates.
	{"workload.setup8_ms", "ms", "lower", 0},
	{"workload.setup64_ms", "ms", "lower", 0},
	{"app.utility_value_ns", "ns", "lower", 0},
	// cmpsim / cache / trace: chipsim8 only.
	{"cmpsim.newchip8_ms", "ms", "lower", 0},
	{"cmpsim.begin8_ms", "ms", "lower", 0},
	{"cmpsim.epoch8_ms", "ms", "lower", 0},
	{"cmpsim.epoch8_noalloc_ms", "ms", "lower", 0},
	{"cmpsim.realloc8_ms", "ms", "lower", 0},
	{"cmpsim.epoch64_ms", "ms", "lower", 0},
	{"cmpsim.eq_share", "share", "lower", 0},
	{"cmpsim.eq_runs_per_epoch", "count", "lower", 0},
	{"cmpsim.epoch8_allocs", "count", "lower", 0},
	{"cache.access_ns", "ns", "lower", 0},
	{"cache.umon_observe_ns", "ns", "lower", 0},
	{"cache.talus_split_ns", "ns", "lower", 0},
	{"trace.next_ns", "ns", "lower", 0},
	{"cmpsim.weighted_speedup", "x", "higher", 0},
	{"cmpsim.envy_freeness", "share", "higher", 0},
	{"cmpsim.throttle_epochs", "count", "lower", 0},
	// server: serve_light (steady path), serve_lifecycle (lifecycle path).
	{"server.epoch_light_us", "us", "lower", 0},
	{"server.epoch_heavy_ms", "ms", "lower", 0},
	{"server.overhead_light_us", "us", "lower", 0},
	{"server.overhead_heavy_us", "us", "lower", 0},
	{"server.epoch_light_allocs", "count", "lower", 0},
	{"server.resp_light_bytes", "B", "lower", 0},
	{"server.resp_heavy_bytes", "B", "lower", 0},
	{"server.create8_ms", "ms", "lower", 0},
	{"server.create64_ms", "ms", "lower", 0},
	{"server.telemetry_us", "us", "lower", 0},
	{"server.get_view_us", "us", "lower", 0},
	{"server.delete_us", "us", "lower", 0},
	{"server.evict_us", "us", "lower", 0},
	{"server.rehydrate8_ms", "ms", "lower", 0},
	{"server.snapshot_save_us", "us", "lower", 0},
	{"server.snapshot_load_us", "us", "lower", 0},
	{"server.snapshot_encode64_us", "us", "lower", 0},
	{"server.snapshot_decode64_us", "us", "lower", 0},
	{"server.snapshot_bytes8", "B", "lower", 0},
	{"server.snapshot_bytes64", "B", "lower", 0},
	{"server.filestore_save_us", "us", "lower", 0},
	{"server.filestore_load_us", "us", "lower", 0},
	{"server.metrics_scrape_1k_ms", "ms", "lower", 0},
	{"server.resident_kb_per_session", "kB", "lower", 0},
	{"server.eq_runs", "count", "lower", 0},
	{"server.eq_rounds", "count", "lower", 0},
	{"server.eq_wall_share", "share", "lower", 0},
	{"server.rejected_429", "count", "lower", 0},
	{"server.http_5xx", "count", "lower", 0},
	{"server.snap_restores", "count", "lower", 0},
	{"server.snap_corrupt", "count", "lower", 0},
	// client / net-http: serve_light.
	{"client.http_light_us", "us", "lower", 0},
	{"client.http_heavy_us", "us", "lower", 0},
	{"client.op_p99_ms", "ms", "lower", 0},
	{"client.op_p999_ms", "ms", "lower", 0},
	// router: serve_light p50 and alloc; under 2 % of serve_heavy.
	{"router.hop_light_us", "us", "lower", 0},
	{"router.hop_heavy_us", "us", "lower", 0},
	{"router.self_us", "us", "lower", 0},
	{"router.alloc_kb_per_op", "kB", "lower", 0},
	{"router.create_us", "us", "lower", 0},
	{"router.list_1k_ms", "ms", "lower", 0},
	{"router.failovers", "count", "lower", 0},
	{"router.retries", "count", "lower", 0},
	{"router.breaker_rejections", "count", "lower", 0},
	// cluster: nothing gated until a workload uses the HTTP snapshot store.
	{"cluster.ring_primary_ns", "ns", "lower", 0},
	{"cluster.ring_sequence_ns", "ns", "lower", 0},
	{"cluster.moved_keys_10k_ms", "ms", "lower", 0},
	{"cluster.snapstore_put_us", "us", "lower", 0},
	{"cluster.snapstore_get_us", "us", "lower", 0},
	// tenant: off the request path.
	{"tenant.rebalance64_us", "us", "lower", 0},
	{"tenant.setdemand_ns", "ns", "lower", 0},
	// experiments: sweep64.
	{"experiments.sweep8_ms", "ms", "lower", 0},
	{"experiments.fig5_serial_ms", "ms", "lower", 0},
	{"experiments.fig5_parallel_speedup", "x", "higher", 0},
	// process.
	{"proc.rss_peak_mb", "MB", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gomaxprocs", "count", "higher", 0},
	{"bench.trace_overhead_share", "share", "lower", 0},
}
