// bench_test.go holds one benchmark per table/figure of the paper's
// evaluation (§6), plus micro-benchmarks for the performance-critical
// substrates and the ablation studies called out in DESIGN.md. Each
// figure/table bench runs the corresponding experiment kernel end to end;
// regenerating the full-size datasets is cmd/rebudget-bench's job.
package rebudget_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"rebudget"
	"rebudget/internal/api"
	"rebudget/internal/cache"
	"rebudget/internal/cmpsim"
	"rebudget/internal/core"
	"rebudget/internal/experiments"
	"rebudget/internal/market"
	"rebudget/internal/numeric"
	"rebudget/internal/router"
	"rebudget/internal/server"
	"rebudget/internal/server/client"
	"rebudget/internal/tenant"
	"rebudget/internal/trace"
	"rebudget/internal/workload"
)

// --- Table 1 ---

func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if cfg := rebudget.NewSystemConfig(64); cfg.PowerBudgetW != 640 {
			b.Fatal("bad config")
		}
	}
}

// --- Figure 1: theory bounds ---

func BenchmarkFig1TheoryBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig1(101)
		if len(pts) != 101 {
			b.Fatal("bad point count")
		}
	}
}

// --- Figure 2: cache utility convexification ---

func BenchmarkFig2CacheUtility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 3: per-app lambda under budget reassignment ---

func BenchmarkFig3Lambda(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 4: phase-1 sweep (efficiency and envy-freeness panels) ---

// sweepOnce runs a reduced sweep (8 cores, one bundle per category) — the
// same kernel as the full 64-core × 40-bundle dataset.
func sweepOnce(b *testing.B) *experiments.SweepResult {
	b.Helper()
	s, err := experiments.RunSweep(8, 1, 7, nil)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// sweepRounds totals the bidding–pricing rounds a sweep performed, so the
// benches can report convergence cost (rounds/op) alongside wall time.
func sweepRounds(s *experiments.SweepResult) int {
	rounds := 0
	for _, br := range s.Bundles {
		for _, it := range br.Iterations {
			rounds += it
		}
	}
	return rounds
}

func BenchmarkFig4Efficiency(b *testing.B) {
	b.ReportAllocs()
	rounds := 0
	for i := 0; i < b.N; i++ {
		s := sweepOnce(b)
		if len(s.Bundles) != 6 || !slices.Contains(s.Mechanisms, "ReBudget-40") {
			b.Fatal("bad sweep shape")
		}
		rounds += sweepRounds(s)
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

func BenchmarkFig4EnvyFreeness(b *testing.B) {
	b.ReportAllocs()
	rounds := 0
	for i := 0; i < b.N; i++ {
		s := sweepOnce(b)
		if len(s.Bundles) != 6 || !slices.Contains(s.Mechanisms, "EqualBudget") {
			b.Fatal("bad sweep shape")
		}
		rounds += sweepRounds(s)
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

// --- Figure 5: detailed execution-driven simulation ---

func BenchmarkFig5Simulation(b *testing.B) {
	cfg := cmpsim.DefaultConfig(4)
	cfg.Epochs = 4
	cfg.WarmupEpochs = 2
	cfg.MaxAccessesPerCoreEpoch = 2000
	for i := 0; i < b.N; i++ {
		if _, err := (experiments.Engine{}).RunFig5(cfg, 3, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §6.4 convergence study ---

func BenchmarkConvergence(b *testing.B) {
	b.ReportAllocs()
	rounds := 0
	for i := 0; i < b.N; i++ {
		s := sweepOnce(b)
		for _, sum := range s.Summarize() {
			if sum.Mechanism != "EqualShare" && sum.P95Iterations <= 0 {
				b.Fatal("missing iteration data")
			}
		}
		rounds += sweepRounds(s)
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

// --- ablations (DESIGN.md design choices) ---

func BenchmarkAblationTalus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationTalus(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBackoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationBackoff(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBidOptimizer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationBidOptimizer(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLambdaThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationLambdaThreshold(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkMarketEquilibrium8(b *testing.B)  { benchEquilibrium(b, 8, false) }
func BenchmarkMarketEquilibrium64(b *testing.B) { benchEquilibrium(b, 64, false) }

// Distinct hides every utility's identity, so all 64 players are solved:
// the per-player cost of the kernel. The benchmark above measures ~57
// classes only by the accident of its 100 + i%3 budgets; a catalog bundle
// on equal budgets has ~16.
func BenchmarkMarketEquilibrium64Distinct(b *testing.B) { benchEquilibrium(b, 64, true) }

// unnamedUtility forwards Value and nothing else, hiding market.Identified.
type unnamedUtility struct{ u market.Utility }

func (h unnamedUtility) Value(alloc []float64) float64 { return h.u.Value(alloc) }

func benchEquilibrium(b *testing.B, cores int, distinct bool) {
	b.Helper()
	bundle, err := workload.Generate(workload.CPBN, cores, numeric.NewRand(3))
	if err != nil {
		b.Fatal(err)
	}
	setup, err := workload.NewSetup(bundle)
	if err != nil {
		b.Fatal(err)
	}
	var players []*market.Player
	for i, p := range setup.Players {
		u := p.Utility
		if distinct {
			u = unnamedUtility{u}
		}
		players = append(players, &market.Player{Name: p.Name, Utility: u, Budget: 100 + float64(i%3)})
	}
	m, err := market.New(setup.Capacity, players, market.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	rounds := 0
	for i := 0; i < b.N; i++ {
		eq, err := market.Settle(m.FindEquilibrium())
		if err != nil {
			b.Fatal(err)
		}
		rounds += eq.Iterations
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

func BenchmarkReBudget64(b *testing.B) {
	bundle, err := workload.Generate(workload.CPBB, 64, numeric.NewRand(5))
	if err != nil {
		b.Fatal(err)
	}
	setup, err := workload.NewSetup(bundle)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	rounds := 0
	for i := 0; i < b.N; i++ {
		out, err := (core.ReBudget{Step: 20}).Allocate(setup.Capacity, setup.Players)
		if err != nil {
			b.Fatal(err)
		}
		rounds += out.Iterations
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

// BenchmarkNewSetup64 assembles one 64-core catalog bundle warm: every
// distinct application's profile comes from the process-wide catalog table,
// and each core gets a twin.
func BenchmarkNewSetup64(b *testing.B) { benchNewSetup64(b, false) }

// BenchmarkNewSetup64Custom is the same bundle with every spec's CPIBase
// nudged off the catalog, so each distinct application is profiled per
// call: the cold build path.
func BenchmarkNewSetup64Custom(b *testing.B) { benchNewSetup64(b, true) }

func benchNewSetup64(b *testing.B, custom bool) {
	b.Helper()
	bundle, err := workload.Generate(workload.CPBB, 64, numeric.NewRand(5))
	if err != nil {
		b.Fatal(err)
	}
	if custom {
		for i := range bundle.Apps {
			bundle.Apps[i].CPIBase *= 1 + 1e-9
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.NewSetup(bundle); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepOp64 is one op of the phase-1 sweep (§6, Figure 4): set up
// a 64-core bundle and run the four market mechanisms on it, cycling
// through one bundle per category.
func BenchmarkSweepOp64(b *testing.B) {
	bundles, err := workload.GenerateAll(64, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	mechs := []core.Allocator{core.EqualBudget{}, core.Balanced{}, core.ReBudget{Step: 20}, core.ReBudget{Step: 40}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setup, err := workload.NewSetup(bundles[i%len(bundles)])
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range mechs {
			if _, err := m.Allocate(setup.Capacity, setup.Players); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEnvyFreeness64 is the view refresh of a 64-core session: every
// player's utility over every distinct bundle of a ReBudget-20 outcome.
func BenchmarkEnvyFreeness64(b *testing.B) {
	bundle, err := workload.Generate(workload.CPBB, 64, numeric.NewRand(5))
	if err != nil {
		b.Fatal(err)
	}
	setup, err := workload.NewSetup(bundle)
	if err != nil {
		b.Fatal(err)
	}
	out, err := (core.ReBudget{Step: 20}).Allocate(setup.Capacity, setup.Players)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := out.EnvyFreeness(setup.Players); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxEfficiency64(b *testing.B) {
	bundle, err := workload.Generate(workload.CPBB, 64, numeric.NewRand(5))
	if err != nil {
		b.Fatal(err)
	}
	setup, err := workload.NewSetup(bundle)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (core.MaxEfficiency{}).Allocate(setup.Capacity, setup.Players); err != nil {
			b.Fatal(err)
		}
	}
}

// benchChipEpoch measures the single-chip hot path: one simulated epoch of
// an n-core chip with reallocation suppressed, so the loop body is pure
// runEpoch (trace generation, interleave, cache/bank simulation, metric
// retirement). allocs/op here is what the generators' LRU stacks take while
// they are still growing — one epoch in, a chunk backing per ~128 new
// blocks; the epoch machinery itself allocates nothing
// (cmpsim.TestRunEpochSteadyStateAllocs), and an aged chip next to nothing
// (cmpsim.TestRunEpochCatalogAllocs).
func benchChipEpoch(b *testing.B, cores int) {
	b.Helper()
	cfg := cmpsim.DefaultConfig(cores)
	cfg.ReallocEvery = 1 << 30 // one allocation up front, then pure epochs
	bundle, err := workload.Generate(workload.CPBN, cores, numeric.NewRand(7))
	if err != nil {
		b.Fatal(err)
	}
	chip, err := cmpsim.NewChip(cfg, bundle)
	if err != nil {
		b.Fatal(err)
	}
	if err := chip.Begin(core.EqualShare{}); err != nil {
		b.Fatal(err)
	}
	// One epoch before the timer: settles scratch buffers and the initial
	// allocation so the measured loop is the steady state.
	if err := chip.StepEpoch(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := chip.StepEpoch(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChipEpoch8(b *testing.B)  { benchChipEpoch(b, 8) }
func BenchmarkChipEpoch64(b *testing.B) { benchChipEpoch(b, 64) }

// benchSweep runs the reduced Fig5 detailed simulation through the
// experiment engine with an explicit worker count. Serial vs Parallel is
// the benchstat pair for the sweep-level fan-out (identical bytes out,
// wall-clock scales with cores).
func benchSweep(b *testing.B, workers int) {
	b.Helper()
	cfg := cmpsim.DefaultConfig(4)
	cfg.Epochs = 4
	cfg.WarmupEpochs = 2
	cfg.MaxAccessesPerCoreEpoch = 2000
	e := experiments.Engine{Workers: workers}
	for i := 0; i < b.N; i++ {
		if _, err := e.RunFig5(cfg, 3, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// BenchmarkCacheAccess times generator and cache together on a cold start;
// BenchmarkCacheVictim and BenchmarkTraceGenerateAged below time each kernel
// alone in the state a long simulation keeps it in.
func BenchmarkCacheAccess(b *testing.B) {
	c, err := cache.NewPartitioned(cache.Config{CapacityBytes: 4 << 20, Ways: 16, Partitions: 16})
	if err != nil {
		b.Fatal(err)
	}
	g := trace.MustNew(trace.Config{LineSize: 64, Mix: []trace.Component{
		{Kind: trace.Geometric, Weight: 0.8, Param: 4096},
		{Kind: trace.Streaming, Weight: 0.2},
	}, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(g.Next(), i&15)
	}
}

// BenchmarkCacheVictim times the miss path — hit scan, victim scan, fill —
// of a full cache under unequal targets, the state every epoch after the
// first reallocation runs in. Addresses are generated before the timer, and
// mostly stream, so about five accesses in six choose a victim; the timed
// loop counts its own misses and fails if fewer than half of a run of at
// least 4096 accesses missed.
func BenchmarkCacheVictim(b *testing.B) {
	const parts = 16
	c, err := cache.NewPartitioned(cache.Config{CapacityBytes: 4 << 20, Ways: 16, Partitions: parts})
	if err != nil {
		b.Fatal(err)
	}
	g := trace.MustNew(trace.Config{LineSize: 64, Mix: []trace.Component{
		{Kind: trace.Geometric, Weight: 0.25, Param: 4096},
		{Kind: trace.Streaming, Weight: 0.75},
	}, Seed: 1})
	addrs := make([]uint64, 1<<20)
	g.Fill(addrs)
	targets := make([]float64, parts)
	for p := range targets {
		targets[p] = float64(c.TotalLines()) * float64(p+1) / (parts * (parts + 1) / 2)
	}
	if err := c.SetTargets(targets); err != nil {
		b.Fatal(err)
	}
	// One pass fills the cache and lets occupancies find the targets.
	for i, a := range addrs {
		c.Access(a, i%parts)
	}
	misses := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A lap streams 12 caches' worth of lines, so none survives to the next.
		if !c.Access(addrs[i&(len(addrs)-1)], i%parts) {
			misses++
		}
	}
	b.StopTimer()
	if b.N >= 1<<12 && misses*2 < b.N {
		b.Fatalf("only %d of %d accesses missed; the bench no longer times the victim path", misses, b.N)
	}
}

func BenchmarkUMONObserve(b *testing.B) {
	u, err := cache.NewUMON(16, 5)
	if err != nil {
		b.Fatal(err)
	}
	g := trace.MustNew(trace.Config{LineSize: 64, Mix: []trace.Component{
		{Kind: trace.Geometric, Weight: 1, Param: 4096},
	}, Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Observe(g.Next())
	}
}

func benchTraceGenerate(b *testing.B, aged int) {
	b.Helper()
	g := trace.MustNew(trace.Config{LineSize: 64, Mix: []trace.Component{
		{Kind: trace.Geometric, Weight: 0.7, Param: 8192},
		{Kind: trace.Cyclic, Weight: 0.2, Param: 4096},
		{Kind: trace.Streaming, Weight: 0.1},
	}, Seed: 3})
	for i := 0; i < aged; i++ {
		g.Next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkTraceGenerate times a generator from its first draw, while its
// LRU stack is still growing; BenchmarkTraceGenerateAged draws 2 M addresses
// first, so the stack has the depth and the chunk layout a simulation that
// has been running for a few hundred epochs works against.
func BenchmarkTraceGenerate(b *testing.B)     { benchTraceGenerate(b, 0) }
func BenchmarkTraceGenerateAged(b *testing.B) { benchTraceGenerate(b, 2000000) }

func BenchmarkTalusSplit(b *testing.B) {
	ratio := make([]float64, 17)
	for r := range ratio {
		if r < 12 {
			ratio[r] = 0.8
		} else {
			ratio[r] = 0.02
		}
	}
	mc, err := cache.NewMissCurve(ratio)
	if err != nil {
		b.Fatal(err)
	}
	tal, err := cache.NewTalus(mc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tal.Split(float64(i%15) + 0.5)
	}
}

func BenchmarkUtilityValue(b *testing.B) {
	u := benchMcfUtility(b)
	alloc := []float64{5.5, 7.25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Value(alloc)
	}
}

// BenchmarkUtilityValueMiss steps the watts coordinate every call, so each
// evaluation misses the frequency memo and pays the power→frequency
// inversion — what the market's watts probes and every hill-climb base
// evaluation pay. BenchmarkUtilityValue above times the memo hit.
func BenchmarkUtilityValueMiss(b *testing.B) {
	u := benchMcfUtility(b)
	alloc := []float64{5.5, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc[1] = 1 + float64(i%1024)/128
		u.Value(alloc)
	}
}

func benchMcfUtility(b *testing.B) *rebudget.AppUtility {
	b.Helper()
	spec, err := rebudget.LookupApp("mcf")
	if err != nil {
		b.Fatal(err)
	}
	m := rebudget.NewAppModel(spec)
	curve, err := m.AnalyticMissCurve()
	if err != nil {
		b.Fatal(err)
	}
	u, err := rebudget.NewAppUtility(m, curve)
	if err != nil {
		b.Fatal(err)
	}
	return u
}

func BenchmarkThreeResourceEquilibrium(b *testing.B) {
	bundle, err := workload.Generate(workload.BBNN, 8, numeric.NewRand(4))
	if err != nil {
		b.Fatal(err)
	}
	setup, err := workload.NewSetupWithBandwidth(bundle)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (core.EqualBudget{}).Allocate(setup.Capacity, setup.Players); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Serving tier: the request hot path ---

// BenchmarkServeEpoch measures one epoch request through the daemon's full
// HTTP path — routing, admission, session mailbox, engine step, JSON
// response — for a cheap (8-core equal-share) session, the dominant request
// class under mixed load. allocs/op here is the serving tier's per-request
// allocation budget; scripts/bench_record.sh tracks it alongside the
// kernel benchmarks.
func BenchmarkServeEpoch(b *testing.B) {
	srv := server.New(server.Config{
		IdleTTL: -1,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	defer srv.Close()
	h := srv.Handler()
	resilient := false
	spec, err := json.Marshal(api.SessionSpec{
		ID:        "bench",
		Workload:  api.WorkloadSpec{Fig3: true},
		Mechanism: "equalshare",
		Resilient: &resilient,
	})
	if err != nil {
		b.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(spec)))
	if rec.Code != 201 {
		b.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions/bench/epoch", http.NoBody))
		if rec.Code != 200 {
			b.Fatalf("epoch: %d %s", rec.Code, rec.Body)
		}
	}
}

// heavyViewJSON is the body a shard answers a 64-core ReBudget-20 epoch
// with — serve_heavy's response, byte for byte as the daemon encodes it.
func heavyViewJSON(b *testing.B) []byte {
	b.Helper()
	srv := server.New(server.Config{IdleTTL: -1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer srv.Close()
	h := srv.Handler()
	spec, err := json.Marshal(api.SessionSpec{
		ID:        "heavy",
		Workload:  api.WorkloadSpec{Category: "CPBB", Cores: 64, Seed: 1},
		Mechanism: "rebudget-20",
	})
	if err != nil {
		b.Fatal(err)
	}
	var body []byte
	for _, req := range []*http.Request{
		httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(spec)),
		httptest.NewRequest("POST", "/v1/sessions/heavy/epoch", http.NoBody),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code/100 != 2 {
			b.Fatalf("%s %s: %d %s", req.Method, req.URL.Path, rec.Code, rec.Body)
		}
		body = rec.Body.Bytes()
	}
	return body
}

// BenchmarkRouterRelay64 measures the router's hop for a 64-core view: one
// GET through Router.Handler() on a loopback listener to a stub shard that
// answers the canned body. B/op covers both hops' net/http state and this
// benchmark's own client; what the relay adds on top must stay buffer-free
// (internal/router's TestRelayByteBudget gates it).
func BenchmarkRouterRelay64(b *testing.B) {
	body := heavyViewJSON(b)
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	}))
	defer shard.Close()
	rt, err := router.New(router.Config{
		Backends:      []string{shard.URL},
		ProbeInterval: time.Hour,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(front.URL + "/v1/sessions/heavy")
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || int(n) != len(body) {
			b.Fatalf("relayed %d of %d bytes: %v", n, len(body), err)
		}
	}
}

// BenchmarkClientDecode64 measures the typed client turning that body into
// a SessionView, with the network taken out (a stub RoundTripper): the
// decode is a quarter of a serve_heavy op's CPU.
func BenchmarkClientDecode64(b *testing.B) {
	body := heavyViewJSON(b)
	c := client.New("http://stub.invalid", client.WithHTTPClient(&http.Client{
		Transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
			return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(body))}, nil
		}),
	}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := c.StepEpoch(context.Background(), "heavy")
		if err != nil || len(v.Alloc.Players) != 64 {
			b.Fatalf("decode: %v (%d players)", err, len(v.Alloc.Players))
		}
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// --- Tenant economy ---

// BenchmarkTenantRebalance measures one lend/reclaim epoch over a 64-leaf
// two-level tenant tree with churning demand — the tenant governor runs
// this on its epoch ticker, so it must stay far off the serving hot path's
// budget.
func BenchmarkTenantRebalance(b *testing.B) {
	var specs []tenant.NodeSpec
	for i := 0; i < 8; i++ {
		parent := tenant.NodeSpec{Name: fmt.Sprintf("org%d", i), Share: float64(1 + i%3)}
		for j := 0; j < 8; j++ {
			parent.Children = append(parent.Children, tenant.NodeSpec{
				Name:  fmt.Sprintf("team%d", j),
				Share: float64(1 + j%2),
			})
		}
		specs = append(specs, parent)
	}
	tr, err := tenant.New(specs, tenant.Config{Capacity: 1024})
	if err != nil {
		b.Fatal(err)
	}
	var leaves []string
	for _, st := range tr.StatusAll() {
		if st.Leaf {
			leaves = append(leaves, st.Path)
		}
	}
	rng := numeric.NewRand(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, path := range leaves {
			if err := tr.SetDemand(path, 32*rng.Float64()); err != nil {
				b.Fatal(err)
			}
		}
		tr.Rebalance()
	}
}

// BenchmarkTenantFrontier runs the reduced frontier sweep end to end — the
// experiment kernel scripts/bench_record.sh tracks for the tenant economy.
func BenchmarkTenantFrontier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTenantFrontier(6, 60, 1, []float64{0.25, 0.75}); err != nil {
			b.Fatal(err)
		}
	}
}
