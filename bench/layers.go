package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rebudget/internal/app"
	"rebudget/internal/cache"
	"rebudget/internal/cluster"
	"rebudget/internal/cmpsim"
	"rebudget/internal/core"
	"rebudget/internal/experiments"
	"rebudget/internal/market"
	"rebudget/internal/numeric"
	"rebudget/internal/server"
	"rebudget/internal/server/client"
	"rebudget/internal/tenant"
	"rebudget/internal/trace"
	"rebudget/internal/workload"
)

// ladder measures every layer on its own, from outside, by timing calls into
// its public functions. Its inputs are fixed — the seeds the legacy
// bench_test.go uses — and do not follow -seed: a count metric is only worth
// comparing across runs and commits if it repeats exactly.
//
// Call counts are nominal at the default run length and scale with
// -seconds, so a long run gives every timing the 200 calls a quoted median
// wants, and the driver's short run still fits its cap.
type ladder struct {
	scale float64
	out   map[string]value
	tmp   string // scratch directory inside the output directory
	// notConverged counts equilibrium searches that hit the §6.4 fail-safe
	// anywhere in the market rungs.
	notConverged int
}

func (l *ladder) calls(nominal int) int {
	n := int(float64(nominal) * l.scale)
	if n < 3 {
		n = 3
	}
	return n
}

func (l *ladder) put(name string, v float64, n int) {
	l.out[name] = value{Value: v, Unit: unitOf(name), N: n}
}

// once calls f and returns how long it took, in nanoseconds.
func once(f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start))
}

// timed calls f n times and returns each call's duration in nanoseconds.
func timed(n int, f func()) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = once(f)
	}
	return d
}

// perCall times batches of a call too short to time alone and returns the
// median batch's nanoseconds per call.
func perCall(batch int, f func(i int)) float64 {
	per := make([]float64, 5)
	for b := range per {
		start := time.Now()
		for i := 0; i < batch; i++ {
			f(i)
		}
		per[b] = float64(time.Since(start)) / float64(batch)
	}
	return median(per)
}

// heapPerCall is what one call of f allocates on the heap, averaged over n:
// objects, and kilobytes.
func heapPerCall(n int, f func()) (mallocs, kb float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(n)
}

// mallocs is the objects one call of f allocates, averaged over n.
func mallocs(n int, f func()) float64 {
	objects, _ := heapPerCall(n, f)
	return objects
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// runLadder measures every rung. A construction error in a rung is a bug in
// the harness or the tree, never load: it surfaces as an error, and the run
// reports no result.
func runLadder(scale float64, outDir string) (out map[string]value, err error) {
	l := &ladder{scale: scale, out: make(map[string]value)}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("layer ladder: %v", r)
		}
	}()
	l.tmp = must(os.MkdirTemp(outDir, "tmp-"))
	defer os.RemoveAll(l.tmp)
	l.market()
	l.core()
	l.workloadApp()
	l.cmpsim()
	l.cacheTrace()
	l.serving()
	l.cluster()
	l.tenant()
	l.experiments()
	l.put("proc.gomaxprocs", float64(runtime.GOMAXPROCS(0)), 0)
	l.put("proc.rss_peak_mb", rssPeakMB(), 0)
	return l.out, nil
}

func setupOf(cat workload.Category, cores int, seed uint64) *workload.Setup {
	return must(workload.NewSetup(must(workload.Generate(cat, cores, numeric.NewRand(seed)))))
}

// --- market ---

func (l *ladder) equilibria(cores, workers, n int, obs func(rounds, steps int, wall time.Duration)) (*market.Market, []float64) {
	s := setupOf(workload.CPBN, cores, 3)
	var players []*market.Player
	for i, p := range s.Players {
		players = append(players, &market.Player{Name: p.Name, Utility: p.Utility, Budget: 100 + float64(i%3)})
	}
	m := must(market.New(s.Capacity, players, market.Config{Workers: workers, Observer: obs}))
	return m, timed(n, func() {
		if eq := must(market.Settle(m.FindEquilibrium())); !eq.Converged {
			l.notConverged++
		}
	})
}

func (l *ladder) market() {
	n := l.calls(40)
	m8, d := l.equilibria(8, 0, l.calls(200), nil)
	m8.Close()
	l.put("market.eq8_cold_us", p50(d)/1e3, len(d))

	var rounds, steps int
	m, cold := l.equilibria(64, 0, n, func(r, s int, _ time.Duration) { rounds, steps = r, s })
	defer m.Close()
	l.put("market.eq64_cold_us", p50(cold)/1e3, n)
	l.put("market.eq64_rounds", float64(rounds), 1)
	l.put("market.eq64_bid_steps", float64(steps), 1)
	l.put("market.eq64_allocs", mallocs(5, func() { must(market.Settle(m.FindEquilibrium())) }), 5)

	// Warm: re-converge from the last equilibrium after one player's budget
	// moved 10 % — what every ReBudget step after the first does.
	eq := must(market.Settle(m.FindEquilibrium()))
	p0, flip := m.Players()[0], false
	base := p0.Budget
	warm := timed(n, func() {
		if flip = !flip; flip {
			p0.Budget = base * 1.1
		} else {
			p0.Budget = base
		}
		if e := must(market.Settle(m.FindEquilibriumFrom(eq.Bids))); !e.Converged {
			l.notConverged++
		}
	})
	p0.Budget = base
	l.put("market.eq64_warm_us", p50(warm)/1e3, n)

	ms, serial := l.equilibria(64, 1, n, nil)
	ms.Close()
	l.put("market.eq64_serial_us", p50(serial)/1e3, n)
	// With one processor the pool cannot help: the ratio is reported but
	// means nothing (the tables print it as unresolved).
	l.put("market.parallel_speedup64", p50(serial)/p50(cold), n)
	l.put("market.not_converged", float64(l.notConverged), 0)
}

// --- core ---

func (l *ladder) core() {
	s := setupOf(workload.CPBB, 64, 5)
	allocate := func(a core.Allocator) func() {
		return func() { must(a.Allocate(s.Capacity, s.Players)) }
	}
	n := l.calls(30)
	l.put("core.equalshare64_us", p50(timed(l.calls(200), allocate(core.EqualShare{})))/1e3, l.calls(200))
	l.put("core.equalbudget64_ms", p50(timed(n, allocate(core.EqualBudget{})))/1e6, n)
	l.put("core.balanced64_ms", p50(timed(n, allocate(core.Balanced{})))/1e6, n)
	// The hardened mechanism takes turns with the bare one, so that their
	// difference is the wrapper and not the minute they ran in.
	res := core.NewResilient(core.ReBudget{Step: 20}, core.ResilientConfig{})
	bare, hardened := allocate(core.ReBudget{Step: 20}), allocate(res)
	pair := interleaved(n, func(int) { bare() }, func(int) { hardened() })
	l.put("core.rebudget20_64_ms", p50(pair[0])/1e6, n)
	l.put("core.resilient_overhead_us", pairedGap(pair[1], pair[0])/1e3, n)
	l.put("core.rebudget40_64_ms", p50(timed(n, allocate(core.ReBudget{Step: 40})))/1e6, n)
	l.put("core.maxeff64_ms", p50(timed(l.calls(5), allocate(core.MaxEfficiency{})))/1e6, l.calls(5))

	out := must(core.ReBudget{Step: 20}.Allocate(s.Capacity, s.Players))
	l.put("core.rebudget20_eq_runs", float64(out.EquilibriumRuns), 1)
	l.put("core.rebudget20_rounds", float64(out.Iterations), 1)

	// What ReBudget's own loop costs: its wall time minus the time the
	// observer saw inside equilibrium searches.
	var inside time.Duration
	observed := core.WithMarketConfig(core.ReBudget{Step: 20}, func(mc market.Config) market.Config {
		mc.Observer = func(_, _ int, wall time.Duration) { inside += wall }
		return mc
	})
	total := numeric.Sum(timed(n, allocate(observed)))
	l.put("core.rebudget_self_share", 1-float64(inside)/total, n)
}

// --- workload / app ---

func (l *ladder) workloadApp() {
	b8 := must(workload.Generate(workload.CPBN, 8, numeric.NewRand(3)))
	b64 := must(workload.Generate(workload.CPBN, 64, numeric.NewRand(3)))
	n := l.calls(200)
	l.put("workload.setup8_ms", p50(timed(n, func() { must(workload.NewSetup(b8)) }))/1e6, n)
	l.put("workload.setup64_ms", p50(timed(n, func() { must(workload.NewSetup(b64)) }))/1e6, n)

	m := app.NewModel(must(app.Lookup("mcf")))
	u := must(app.NewUtility(m, must(m.AnalyticMissCurve())))
	alloc := []float64{5.5, 7.25}
	l.put("app.utility_value_ns", perCall(100000, func(int) { u.Value(alloc) }), 100000)
}

// --- cmpsim ---

// chipEpochs is fixed, not scaled: the simulated statistics read after it
// must be the same numbers on every run.
const chipEpochs = 32

func newChip(cores int, reallocEvery int) *cmpsim.Chip {
	cfg := cmpsim.DefaultConfig(cores)
	cfg.ReallocEvery = reallocEvery
	b := must(workload.Generate(workload.CPBN, cores, numeric.NewRand(7)))
	return must(cmpsim.NewChip(cfg, b))
}

func (l *ladder) cmpsim() {
	alloc := core.ReBudget{Step: 20}
	n := l.calls(50)
	l.put("cmpsim.newchip8_ms", p50(timed(n, func() { newChip(8, 1) }))/1e6, n)
	nb := l.calls(3)
	l.put("cmpsim.begin8_ms", p50(timed(nb, func() { check(newChip(8, 1).Begin(alloc)) }))/1e6, nb)

	chip := newChip(8, 1)
	check(chip.Begin(alloc))
	check(chip.StepEpoch())
	eq0 := chip.Equilibrium()
	d := timed(chipEpochs, func() { check(chip.StepEpoch()) })
	eq1 := chip.Equilibrium()
	l.put("cmpsim.epoch8_ms", p50(d)/1e6, chipEpochs)
	l.put("cmpsim.eq_share", float64(eq1.Wall-eq0.Wall)/numeric.Sum(d), chipEpochs)
	l.put("cmpsim.eq_runs_per_epoch", float64(eq1.Runs-eq0.Runs)/chipEpochs, chipEpochs)
	l.put("cmpsim.epoch8_allocs", mallocs(5, func() { check(chip.StepEpoch()) }), 5)
	res := must(chip.Snapshot())
	l.put("cmpsim.weighted_speedup", res.WeightedSpeedup, 0)
	l.put("cmpsim.envy_freeness", res.EnvyFreeness, 0)
	l.put("cmpsim.throttle_epochs", float64(res.ThrottleEpochs), 0)

	// The same chip with the allocator run once, up front: what is left is
	// pure simulation, and the difference is what reallocation costs.
	quiet := newChip(8, 1<<30)
	check(quiet.Begin(alloc))
	check(quiet.StepEpoch())
	dq := timed(chipEpochs, func() { check(quiet.StepEpoch()) })
	l.put("cmpsim.epoch8_noalloc_ms", p50(dq)/1e6, chipEpochs)
	l.put("cmpsim.realloc8_ms", (p50(d)-p50(dq))/1e6, chipEpochs)

	big := newChip(64, 1)
	check(big.Begin(alloc))
	n64 := l.calls(3)
	l.put("cmpsim.epoch64_ms", p50(timed(n64, func() { check(big.StepEpoch()) }))/1e6, n64)
}

// --- cache / trace ---

func (l *ladder) cacheTrace() {
	const batch = 100000
	c := must(cache.NewPartitioned(cache.Config{CapacityBytes: 4 << 20, Ways: 16, Partitions: 16}))
	g := trace.MustNew(trace.Config{LineSize: 64, Mix: []trace.Component{
		{Kind: trace.Geometric, Weight: 0.8, Param: 4096},
		{Kind: trace.Streaming, Weight: 0.2},
	}, Seed: 1})
	next := perCall(batch, func(int) { g.Next() })
	l.put("trace.next_ns", next, batch)
	// Access is timed with the address generation it needs, then that is
	// taken out.
	l.put("cache.access_ns", perCall(batch, func(i int) { c.Access(g.Next(), i&15) })-next, batch)
	u := must(cache.NewUMON(16, 5))
	l.put("cache.umon_observe_ns", perCall(batch, func(int) { u.Observe(g.Next()) })-next, batch)

	ratio := make([]float64, 17)
	for r := range ratio {
		ratio[r] = 0.02
		if r < 12 {
			ratio[r] = 0.8
		}
	}
	tal := must(cache.NewTalus(must(cache.NewMissCurve(ratio))))
	l.put("cache.talus_split_ns", perCall(batch, func(i int) { tal.Split(float64(i%15) + 0.5) }), batch)
}

// --- server / client / router: the epoch at four depths ---

// scaledUtility is the offline stand-in for the daemon's telemetry-scaled
// utility: the same surface times a live demand factor.
type scaledUtility struct {
	inner market.Utility
	scale *float64
}

func (u scaledUtility) Value(alloc []float64) float64 { return *u.scale * u.inner.Value(alloc) }

// offlineEpoch reproduces what one served epoch computes — the mechanism
// from warm bids, then envy-freeness for the view — with no server around it.
type offlineEpoch struct {
	s      *workload.Setup
	alloc  core.Allocator
	demand float64
}

func newOfflineEpoch(spec server.SessionSpec) *offlineEpoch {
	e := &offlineEpoch{s: must(setupFor(spec.Workload)), demand: 1}
	e.s.Players[0].Utility = scaledUtility{inner: e.s.Players[0].Utility, scale: &e.demand}
	switch spec.Mechanism {
	case "equalshare":
		e.alloc = core.NewResilient(core.EqualShare{}, core.ResilientConfig{})
	default:
		e.alloc = core.NewResilient(core.ReBudget{Step: 20}, core.ResilientConfig{})
	}
	return e
}

func (e *offlineEpoch) step(demand float64) {
	if demand > 0 {
		e.demand = demand
	}
	out := must(e.alloc.Allocate(e.s.Capacity, e.s.Players))
	must(out.EnvyFreeness(e.s.Players))
	e.alloc = core.WithWarmBids(e.alloc, out.Bids)
}

// rung is the epoch at one depth of the stack: the same light epoch and the
// same heavy monitor-then-reallocate round, each on a session of its own
// that is fed exactly what the other depths' sessions are fed — so every
// depth does identical market work and differs only in what surrounds it.
type rung struct {
	light func()
	heavy func(round int)
}

// interleaved times fs[0], fs[1], … in turn, n rounds, and returns each
// one's durations. Taking turns makes the machine's drift common to all of
// them, so it cancels in the differences the ladder reports.
func interleaved(n int, fs ...func(round int)) [][]float64 {
	d := make([][]float64, len(fs))
	for round := 0; round < n; round++ {
		for k, f := range fs {
			start := time.Now()
			f(round)
			d[k] = append(d[k], float64(time.Since(start)))
		}
	}
	return d
}

// pairedGap is the median of a[i]−b[i] over interleaved rounds. Round i does
// the same work on both sides — its cost varies from round to round far more
// than the gap does — so the difference is taken round by round.
func pairedGap(a, b []float64) float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return median(d)
}

func (l *ladder) serving() {
	spec := func(base server.SessionSpec, suffix string) server.SessionSpec {
		base.ID = "ladder-" + suffix
		return base
	}
	lightOf := func(suffix string) server.SessionSpec { return spec(lightSpec(""), "light-"+suffix) }
	heavyOf := func(suffix string) server.SessionSpec { return spec(heavySpec(5, 0), "heavy-"+suffix) }

	// Depth 1: no server at all.
	offL, offH := newOfflineEpoch(lightOf("off")), newOfflineEpoch(heavyOf("off"))
	offline := rung{
		light: func() { offL.step(0) },
		heavy: func(round int) { offH.step(demandCycle[round%3]) },
	}

	// Depth 2: the daemon's handler, in process, no socket.
	mem := server.NewMemorySnapshotStore()
	store := &timedStore{inner: mem}
	b := newBare(server.Config{MaxSessions: 4096, Snapshots: store})
	defer b.srv.Close()
	hl, hh := lightOf("handler"), heavyOf("handler")
	must(b.do("POST", "/v1/sessions", hl, nil))
	must(b.do("POST", "/v1/sessions", hh, nil))
	var lightB, heavyB int
	handler := rung{
		light: func() { lightB = must(b.do("POST", "/v1/sessions/"+hl.ID+"/epoch", epochOne, nil)) },
		heavy: func(round int) {
			must(b.do("POST", "/v1/sessions/"+hh.ID+"/telemetry", heavyTelemetry(round), nil))
			heavyB = must(b.do("POST", "/v1/sessions/"+hh.ID+"/epoch", epochOne, nil))
		},
	}

	// Depths 3 and 4: a shard over loopback HTTP, then the router in front.
	// The tracer only arms the tier's timing seams; with no root span ever
	// opened it records nothing.
	t := must(newTier(tierConfig{maxSessions: 4096, tr: newTracer()}))
	defer t.close()
	rc := t.routerClient()
	over := func(suffix string, direct bool) rung {
		ls, hs := lightOf(suffix), heavyOf(suffix)
		must(rc.CreateSession(bg, ls))
		must(rc.CreateSession(bg, hs))
		lc, hc := rc, rc
		if direct { // straight to the shard the ring put each session on
			lc, hc = t.ownerOf(ls.ID), t.ownerOf(hs.ID)
		}
		return rung{
			light: func() { must(lc.StepEpoch(bg, ls.ID)) },
			heavy: func(round int) {
				must(hc.Telemetry(bg, hs.ID, heavyTelemetry(round)))
				must(hc.StepEpoch(bg, hs.ID))
			},
		}
	}
	shard, viaRouter := over("shard", true), over("router", false)

	rungs := []rung{offline, handler, shard, viaRouter}
	// A parallel solve that follows loopback traffic runs about 1 ms slower
	// (measured: 11.1 ms against 10.0; after a sleep of the same length,
	// 10.2): the ping-pong leaves the process's threads stacked on one CPU.
	// Each heavy round ends on the router, so it starts with an untimed
	// solve on a session of its own, and the offline rung is measured on a
	// settled machine as the handler rung after it is.
	settle := newOfflineEpoch(heavyOf("settle"))
	var lights []func(int)
	heavies := []func(int){func(round int) { settle.step(demandCycle[round%3]) }}
	for _, r := range rungs {
		lights = append(lights, func(int) { r.light() })
		heavies = append(heavies, r.heavy)
	}
	interleaved(20, lights...) // connections, pools, warm bids
	interleaved(3, heavies...)
	nl, nh := l.calls(2000), l.calls(24)
	rtr0, fwd0, reqs0 := t.rtrNS.Load(), t.fwd.ns.Load(), t.rtrReqs.Load()
	dl := interleaved(nl, lights...)
	// Only the last rung's requests pass the router's timed handler and its
	// timed transport: what the handler spent outside the transport is its own.
	reqs := t.rtrReqs.Load() - reqs0
	l.put("router.self_us", float64(t.rtrNS.Load()-rtr0-(t.fwd.ns.Load()-fwd0))/float64(reqs)/1e3, int(reqs))
	dh := interleaved(nh, heavies...)[1:] // three warm rounds were one whole demand cycle

	l.put("server.epoch_light_us", p50(dl[1])/1e3, nl)
	l.put("server.epoch_heavy_ms", p50(dh[1])/1e6, nh)
	l.put("server.overhead_light_us", pairedGap(dl[1], dl[0])/1e3, nl)
	l.put("server.overhead_heavy_us", pairedGap(dh[1], dh[0])/1e3, nh)
	l.put("client.http_light_us", pairedGap(dl[2], dl[1])/1e3, nl)
	l.put("client.http_heavy_us", pairedGap(dh[2], dh[1])/1e3, nh)
	l.put("router.hop_light_us", pairedGap(dl[3], dl[2])/1e3, nl)
	l.put("router.hop_heavy_us", pairedGap(dh[3], dh[2])/1e3, nh)
	l.put("server.resp_light_bytes", float64(lightB), 1)
	l.put("server.resp_heavy_bytes", float64(heavyB), 1)
	l.put("server.epoch_light_allocs", mallocs(200, handler.light), 200)
	_, viaKB := heapPerCall(500, viaRouter.light)
	_, directKB := heapPerCall(500, shard.light)
	l.put("router.alloc_kb_per_op", viaKB-directKB, 500)
	l.lifecycle(b, mem, store, hh.ID)

	// A thousand sessions placed through the router, then one listing.
	const fleet = 1000
	created := make([]float64, 0, fleet)
	for k := 0; k < fleet; k++ {
		spec := lightSpec("fleet-" + strconv.Itoa(k))
		created = append(created, once(func() { must(rc.CreateSession(bg, spec)) }))
	}
	l.put("router.create_us", p50(created)/1e3, fleet)
	nlist := l.calls(5)
	l.put("router.list_1k_ms", p50(timed(nlist, func() {
		if got := len(must(rc.ListSessions(bg))); got != fleet+4 {
			panic(fmt.Sprintf("listing returned %d sessions, want %d", got, fleet+4))
		}
	}))/1e6, nlist)
}

// ownerOf returns a client for the shard that holds the session.
func (t *tier) ownerOf(id string) *client.Client {
	for _, sl := range t.shardL {
		c := t.client(sl.base)
		if _, err := c.GetSession(bg, id); err == nil {
			return c
		}
	}
	panic("no shard holds session " + id)
}

// lifecycle times the daemon's other verbs on the in-process handler, with
// the snapshot store wrapped so save and load are timed from outside.
func (l *ladder) lifecycle(b *bare, mem *server.MemorySnapshotStore, store *timedStore, heavyID string) {
	const fleet = 1000
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ids := make([]string, fleet)
	create := make([]float64, fleet)
	for k := range ids {
		ids[k] = "res-" + strconv.Itoa(k)
		spec := lightSpec(ids[k])
		create[k] = once(func() { must(b.do("POST", "/v1/sessions", spec, nil)) })
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	l.put("server.create8_ms", p50(create)/1e6, fleet)
	l.put("server.resident_kb_per_session", (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/1024/fleet, fleet)
	ns := l.calls(5)
	l.put("server.metrics_scrape_1k_ms", p50(timed(ns, func() { must(b.do("GET", "/metrics", nil, nil)) }))/1e6, ns)

	n64 := l.calls(5)
	k64 := 0
	l.put("server.create64_ms", p50(timed(n64, func() {
		spec := heavySpec(5, 0)
		spec.ID = "big-" + strconv.Itoa(k64)
		k64++
		must(b.do("POST", "/v1/sessions", spec, nil))
	}))/1e6, n64)

	n := l.calls(200)
	at := func(i int) string { return ids[i%fleet] }
	i := 0
	l.put("server.telemetry_us", p50(timed(n, func() {
		must(b.do("POST", "/v1/sessions/"+at(i)+"/telemetry", heavyTelemetry(i), nil))
		i++
	}))/1e3, n)
	l.put("server.get_view_us", p50(timed(n, func() { must(b.do("GET", "/v1/sessions/"+at(i), nil, nil)); i++ }))/1e3, n)

	// Evict then touch: the touch rebuilds the engine from the snapshot.
	rb := lightSpec("")
	rb.Mechanism = "rebudget-20"
	var evict, rehydrate []float64
	for k := 0; k < l.calls(50); k++ {
		rb.ID = "cycle-" + strconv.Itoa(k)
		must(b.do("POST", "/v1/sessions", rb, nil))
		must(b.do("POST", "/v1/sessions/"+rb.ID+"/epoch", epochOne, nil))
		evict = append(evict, once(func() { must(b.do("POST", "/v1/sessions/"+rb.ID+"/evict", nil, nil)) }))
		rehydrate = append(rehydrate, once(func() { must(b.do("POST", "/v1/sessions/"+rb.ID+"/epoch", epochOne, nil)) }))
	}
	l.put("server.evict_us", p50(evict)/1e3, len(evict))
	l.put("server.rehydrate8_ms", p50(rehydrate)/1e6, len(rehydrate))
	l.put("server.snapshot_save_us", float64(store.saveNS.Load())/float64(store.saves.Load())/1e3, int(store.saves.Load()))
	l.put("server.snapshot_load_us", float64(store.loadNS.Load())/float64(store.loads.Load())/1e3, int(store.loads.Load()))
	l.put("server.delete_us", p50(timed(n, func() { must(b.do("DELETE", "/v1/sessions/"+at(i), nil, nil)); i++ }))/1e3, n)

	// The codec and the file store on a 64-core snapshot.
	must(b.do("POST", "/v1/sessions/cycle-0/evict", nil, nil))
	must(b.do("POST", "/v1/sessions/"+heavyID+"/evict", nil, nil))
	small, big := must(mem.LoadRaw("cycle-0")), must(mem.LoadRaw(heavyID))
	l.put("server.snapshot_bytes8", float64(len(small)), 1)
	l.put("server.snapshot_bytes64", float64(len(big)), 1)
	snap := must(server.DecodeSnapshot(heavyID, big))
	l.put("server.snapshot_encode64_us", p50(timed(n, func() { must(server.EncodeSnapshot(snap)) }))/1e3, n)
	l.put("server.snapshot_decode64_us", p50(timed(n, func() { must(server.DecodeSnapshot(heavyID, big)) }))/1e3, n)
	fs := must(server.NewFileSnapshotStore(l.tmp))
	nf := l.calls(10)
	l.put("server.filestore_save_us", p50(timed(nf, func() { check(fs.Save(snap)) }))/1e3, nf)
	l.put("server.filestore_load_us", p50(timed(nf, func() { must(fs.Load(heavyID)) }))/1e3, nf)
}

// --- cluster ---

func (l *ladder) cluster() {
	const batch = 100000
	ring := cluster.NewRing(64)
	members := []string{"http://10.0.0.1:9001", "http://10.0.0.2:9001", "http://10.0.0.3:9001", "http://10.0.0.4:9001"}
	for _, m := range members {
		ring.Add(m)
	}
	keys := make([]string, 10000)
	for i := range keys {
		keys[i] = "session-" + strconv.Itoa(i)
	}
	l.put("cluster.ring_primary_ns", perCall(batch, func(i int) { ring.Primary(keys[i%len(keys)]) }), batch)
	l.put("cluster.ring_sequence_ns", perCall(batch, func(i int) { ring.Sequence(keys[i%len(keys)]) }), batch)
	n := l.calls(5)
	l.put("cluster.moved_keys_10k_ms", p50(timed(n, func() { cluster.MovedKeys(members[:3], members, 64, keys) }))/1e6, n)

	ss, err := serve(cluster.NewSnapServer(1<<20, discardLog()).Handler())
	check(err)
	defer ss.close()
	x := http.DefaultTransport.(*http.Transport).Clone()
	defer x.CloseIdleConnections()
	hs := cluster.NewHTTPSnapshotStore(ss.base, &http.Client{Transport: x})
	snap := &server.SessionSnapshot{Version: server.SnapshotVersion, ID: "snap", Spec: lightSpec("snap"),
		Epochs: 3, Health: "healthy", Market: &server.MarketSnapshot{Demand: make([]float64, 8), Weights: make([]float64, 8)}}
	ns := l.calls(200)
	l.put("cluster.snapstore_put_us", p50(timed(ns, func() { check(hs.Save(snap)) }))/1e3, ns)
	l.put("cluster.snapstore_get_us", p50(timed(ns, func() { must(hs.Load("snap")) }))/1e3, ns)
}

// --- tenant ---

func (l *ladder) tenant() {
	var specs []tenant.NodeSpec
	for i := 0; i < 8; i++ {
		parent := tenant.NodeSpec{Name: fmt.Sprintf("org%d", i), Share: float64(1 + i%3)}
		for j := 0; j < 8; j++ {
			parent.Children = append(parent.Children, tenant.NodeSpec{Name: fmt.Sprintf("team%d", j), Share: float64(1 + j%2)})
		}
		specs = append(specs, parent)
	}
	tr := must(tenant.New(specs, tenant.Config{Capacity: 1024}))
	var leaves []string
	for _, st := range tr.StatusAll() {
		if st.Leaf {
			leaves = append(leaves, st.Path)
		}
	}
	rng := numeric.NewRand(1)
	churn := func() {
		for _, path := range leaves {
			check(tr.SetDemand(path, 32*rng.Float64()))
		}
	}
	n := l.calls(200)
	d := make([]float64, n)
	for i := range d {
		churn()
		d[i] = once(func() { tr.Rebalance() })
	}
	l.put("tenant.rebalance64_us", p50(d)/1e3, n)
	l.put("tenant.setdemand_ns", perCall(len(leaves)*100, func(i int) {
		check(tr.SetDemand(leaves[i%len(leaves)], float64(i%32)))
	}), len(leaves)*100)
}

// --- experiments ---

func (l *ladder) experiments() {
	n := l.calls(3)
	l.put("experiments.sweep8_ms", p50(timed(n, func() { must(experiments.RunSweep(8, 1, 7, nil)) }))/1e6, n)
	cfg := cmpsim.DefaultConfig(4)
	cfg.Epochs, cfg.WarmupEpochs, cfg.MaxAccessesPerCoreEpoch = 2, 1, 2000
	fig5 := func(workers int) float64 {
		return p50(timed(n, func() { must(experiments.Engine{Workers: workers}.RunFig5(cfg, 3, nil)) }))
	}
	serial, parallel := fig5(1), fig5(0)
	l.put("experiments.fig5_serial_ms", serial/1e6, n)
	l.put("experiments.fig5_parallel_speedup", serial/parallel, n)
}

// rssPeakMB reads the process's peak resident set from the kernel.
func rssPeakMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
