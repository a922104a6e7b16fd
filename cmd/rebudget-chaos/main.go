// Command rebudget-chaos is the chaos soak harness for the sharded
// serving tier: it boots N in-process rebudgetd shards over one shared,
// fault-injected snapshot store, puts a rebudget-router in front of them
// with a chaos transport on the proxy data path, drives a mixed
// market/sim session population through the tier while a seeded schedule
// kills and restarts shards, partitions and heals their data paths,
// spikes injected latency, corrupts stored snapshots and — mid-outage —
// grows the tier by a shard through the router's elastic membership
// (-shard-adds), and then asserts what robustness actually means here:
//
//   - zero lost sessions: every session converges to its target epoch
//     count after the chaos ends (failover + snapshot rehydration, or a
//     deterministic cold restart when its snapshot was corrupted);
//   - bit-identity: every session's final allocation state (allocations,
//     budgets, utilities, chip frequencies) is byte-identical to an
//     undisturbed baseline run of the same specs — interruptions may
//     cost availability, never correctness;
//   - bounded client-visible error rate during the soak;
//   - the router's circuit breakers visibly opened (transitions in
//     /metrics) and the snapshot checksum path visibly caught the
//     scripted corruption (corrupt/verified counters in /metrics).
//
// The schedule, the network faults and the disk faults are all derived
// from -seed; -print-schedule prints the event list and exits, which is
// how scripts/chaos_smoke.sh checks that a seed reproduces its run.
//
// Usage:
//
//	rebudget-chaos -seed 7 -steps 160 -sessions 6 -shards 2
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"rebudget/internal/chaos"
	"rebudget/internal/router"
	"rebudget/internal/server"
	"rebudget/internal/server/client"
)

func main() { os.Exit(run()) }

// harness owns the whole in-process tier.
type harness struct {
	log    *slog.Logger
	quiet  *slog.Logger
	inj    *chaos.Injector
	tr     *chaos.Transport
	fstore *chaos.FaultySnapshotStore
	shards []*shardProc
	rt     *router.Router
	rtHTTP *http.Server
	rtAddr string

	baseLatencyRate float64

	shardsAdded    int // add-shard events that actually admitted a shard
	movedByElastic int // sessions those admissions scheduled for migration
}

// shardProc is one in-process rebudgetd shard that can be killed and
// restarted on a stable address.
type shardProc struct {
	idx  int
	addr string // host:port, fixed after first start
	srv  *server.Server
	hs   *http.Server
	down bool
}

func (s *shardProc) base() string { return "http://" + s.addr }

func (h *harness) startShard(s *shardProc) error {
	addr := s.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	for try := 0; try < 20; try++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("shard %d listen %s: %w", s.idx, addr, err)
	}
	s.addr = ln.Addr().String()
	s.srv = server.New(server.Config{Snapshots: h.fstore, Logger: h.quiet})
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func(hs *http.Server, ln net.Listener) { _ = hs.Serve(ln) }(s.hs, ln)
	s.down = false
	return nil
}

// killShard hard-stops the listener mid-traffic, then closes the daemon —
// which snapshots every resident session to the shared store, the state a
// drain-on-SIGTERM leaves behind. Stranded sessions rehydrate on the
// surviving shards the moment the router fails their next request over.
func (h *harness) killShard(s *shardProc) {
	if s.down {
		return
	}
	_ = s.hs.Close()
	s.srv.Close()
	s.srv, s.hs = nil, nil
	s.down = true
}

func run() int {
	var (
		seed         = flag.Uint64("seed", 1, "chaos seed: schedule, network and disk faults all derive from it")
		steps        = flag.Int("steps", 160, "driver steps in the soak loop")
		nSessions    = flag.Int("sessions", 6, "sessions in the mixed market/sim population")
		nShards      = flag.Int("shards", 2, "rebudgetd shards behind the router")
		shardAdds    = flag.Int("shard-adds", 1, "mid-outage shard additions to script (0 keeps the tier static)")
		printSched   = flag.Bool("print-schedule", false, "print the seeded chaos schedule and exit")
		stepSleep    = flag.Duration("step-sleep", 5*time.Millisecond, "sleep between driver steps (lets probes interleave)")
		maxErrorRate = flag.Float64("max-error-rate", 0.6, "fail if client-visible soak errors exceed this fraction")
		verbose      = flag.Bool("v", false, "log every chaos event and recovery action")
	)
	flag.Parse()

	ids := make([]string, *nSessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("cs-%d", i)
	}
	events := chaos.NewSchedule(chaos.ScheduleConfig{
		Seed: *seed, Steps: *steps, Shards: *nShards, Sessions: ids,
		Partitions: 2, Kills: 1, LatencySpikes: 1, Corruptions: 2,
		ShardAdds: *shardAdds,
	})
	if *printSched {
		for _, e := range events {
			fmt.Println(e)
		}
		return 0
	}

	h := &harness{
		quiet:           slog.New(slog.NewTextHandler(io.Discard, nil)),
		baseLatencyRate: 0.05,
	}
	level := slog.LevelWarn
	if *verbose {
		level = slog.LevelInfo
	}
	h.log = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	// Per-session epoch target: low enough that the population converges
	// well inside the soak, high enough that kills land mid-progress.
	target := *steps / (2 * *nSessions)
	if target < 4 {
		target = 4
	}
	specs := make(map[string]server.SessionSpec, *nSessions)
	for i, id := range ids {
		specs[id] = specFor(i, id)
	}

	fmt.Printf("chaos: seed=%d steps=%d sessions=%d shards=%d target-epochs=%d events=%d\n",
		*seed, *steps, *nSessions, *nShards, target, len(events))

	// --- undisturbed baseline: same specs, one clean daemon, no chaos ---
	baseline, baselineNext, err := baselineViews(h.quiet, ids, specs, target)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: baseline run failed: %v\n", err)
		return 1
	}
	fmt.Printf("chaos: baseline captured (%d sessions, comparison epoch %d)\n", len(baseline), target+1)

	// --- the tier under test ---
	snapDir, err := os.MkdirTemp("", "rebudget-chaos-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		return 1
	}
	defer os.RemoveAll(snapDir)
	files, err := server.NewFileSnapshotStore(snapDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		return 1
	}
	// Background network noise on the data path; the scripted windows
	// (partitions, latency spikes) layer on top. Disk-fault rates stay
	// zero here: disk damage comes only from scripted corruption events,
	// so the zero-lost-sessions invariant is assertable per seed.
	h.inj = chaos.New(chaos.Config{
		Seed:        *seed,
		LatencyRate: h.baseLatencyRate,
		LatencyMin:  500 * time.Microsecond,
		LatencyMax:  3 * time.Millisecond,
		DropRate:    0.02,
		Blip5xxRate: 0.02,
		ResetRate:   0.02,
	})
	h.tr = chaos.NewTransport(h.inj, nil)
	h.fstore = chaos.NewFaultySnapshotStore(files, h.inj)

	for i := 0; i < *nShards; i++ {
		s := &shardProc{idx: i}
		if err := h.startShard(s); err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			return 1
		}
		h.shards = append(h.shards, s)
	}
	bases := make([]string, len(h.shards))
	for i, s := range h.shards {
		bases[i] = s.base()
	}
	h.rt, err = router.New(router.Config{
		Backends:          bases,
		ProbeInterval:     50 * time.Millisecond,
		Transport:         h.tr,
		Breaker:           router.BreakerConfig{FailureThreshold: 3, OpenTimeout: 400 * time.Millisecond},
		MigrationInterval: 20 * time.Millisecond,
		MigrationBudget:   4,
		Logger:            h.quiet,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos: router:", err)
		return 1
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		return 1
	}
	h.rtAddr = rln.Addr().String()
	h.rtHTTP = &http.Server{Handler: h.rt.Handler()}
	go func() { _ = h.rtHTTP.Serve(rln) }()

	ctx := context.Background()
	rc := client.New("http://"+h.rtAddr, client.WithTimeout(10*time.Second))

	// Place the population through the router (chaos background noise is
	// already live, so creates get a short retry loop; a 409 means an
	// earlier attempt landed despite its torn response).
	for _, id := range ids {
		if err := createWithRetry(ctx, rc, specs[id]); err != nil {
			fmt.Fprintf(os.Stderr, "chaos: placing %s: %v\n", id, err)
			return 1
		}
	}
	fmt.Printf("chaos: %d sessions placed through the router at %s\n", len(ids), h.rtAddr)

	// --- the soak ---
	byStep := make(map[int][]chaos.Event)
	for _, e := range events {
		byStep[e.Step] = append(byStep[e.Step], e)
	}
	var attempts, errs, notFound int
	epochs := make(map[string]int64, len(ids))
	for step := 1; step <= *steps; step++ {
		for _, e := range byStep[step] {
			h.apply(e)
		}
		id := ids[step%len(ids)]
		v, err := rc.GetSession(ctx, id)
		attempts++
		switch {
		case err == nil:
			epochs[id] = v.Epochs
			if v.Epochs < int64(target) {
				attempts++
				if sv, serr := rc.StepEpoch(ctx, id); serr != nil {
					errs++
				} else {
					epochs[id] = sv.Epochs
				}
			}
		case isStatus(err, http.StatusNotFound):
			// A stranded session whose snapshot hasn't landed yet (or was
			// corrupted): survivors answer an honest 404. Recovery happens
			// in the convergence phase, once routing is stable again.
			notFound++
			errs++
		default:
			errs++
		}
		time.Sleep(*stepSleep)
	}
	errRate := float64(errs) / float64(attempts)
	fmt.Printf("chaos: soak done: %d attempts, %d errors (%.1f%%), %d not-found\n",
		attempts, errs, 100*errRate, notFound)

	// --- quiesce: end every disturbance, let probes re-converge ---
	h.inj.SetLatencyRate(h.baseLatencyRate)
	for _, s := range h.shards {
		h.tr.Heal(s.base())
		if s.down {
			if err := h.startShard(s); err != nil {
				fmt.Fprintln(os.Stderr, "chaos: restarting shard:", err)
				return 1
			}
		}
	}
	time.Sleep(300 * time.Millisecond) // a few probe sweeps

	// --- convergence: every session must reach the target ---
	recreated := 0
	converged := false
	for round := 0; round < 50 && !converged; round++ {
		converged = true
		for _, id := range ids {
			v, err := rc.GetSession(ctx, id)
			if isStatus(err, http.StatusNotFound) {
				// The snapshot is gone (scripted corruption): a cold
				// restart from the same spec is deterministic, so the
				// session still converges to the baseline state.
				if err := createWithRetry(ctx, rc, specs[id]); err != nil {
					fmt.Fprintf(os.Stderr, "chaos: recreating %s: %v\n", id, err)
					return 1
				}
				recreated++
				converged = false
				continue
			}
			if err != nil {
				converged = false
				continue
			}
			for v.Epochs < int64(target) {
				sv, serr := rc.StepEpoch(ctx, id)
				if serr != nil {
					converged = false
					break
				}
				v = sv
			}
		}
		if !converged {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !converged {
		fmt.Fprintln(os.Stderr, "chaos: FAIL: sessions did not converge after the chaos ended (lost sessions)")
		return 1
	}

	// --- bit-identity against the baseline: compute one fresh epoch per
	// session through the router and require it to match the undisturbed
	// run's same epoch. Sessions that survived in memory continue from live
	// state; sessions that failed over or restarted continue from restored
	// snapshots; cold-restarted sessions recomputed the whole trajectory —
	// all three paths must land on the same bytes. Background chaos noise
	// is still live, so each step retries through transient blips.
	mismatches := 0
	for _, id := range ids {
		v, err := driveTo(ctx, rc, id, int64(target+1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: FAIL: final epoch of %s: %v\n", id, err)
			return 1
		}
		got, err := canonicalView(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			return 1
		}
		if got != baseline[id] {
			mismatches++
			fmt.Fprintf(os.Stderr, "chaos: FAIL: %s diverged from the undisturbed baseline\n  baseline: %s\n  chaos:    %s\n",
				id, baseline[id], got)
		}
	}
	fmt.Printf("chaos: converged: %d/%d sessions bit-identical to baseline, %d cold restarts\n",
		len(ids)-mismatches, len(ids), recreated)

	// --- router observability: the breakers must have visibly worked ---
	mtext, err := rc.Metrics(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos: scraping router metrics:", err)
		return 1
	}
	opens := metricSum(mtext, "rebudget_router_breaker_transitions_total", `to="open"`)
	retries := metricSum(mtext, "rebudget_router_retries_total", "")
	failovers := metricSum(mtext, "rebudget_router_failovers_total", "")
	fmt.Printf("chaos: router saw %g breaker opens, %g retries, %g failovers\n", opens, retries, failovers)
	migrations := metricSum(mtext, "rebudget_router_migrations_total", "")
	epoch := metricSum(mtext, "rebudget_router_membership_epoch", "")
	if hasShardAdds(events) {
		fmt.Printf("chaos: elastic: membership epoch %g, %g sessions migrated\n", epoch, migrations)
	}

	// --- tear the tier down; every resident session snapshots out ---
	_ = h.rtHTTP.Close()
	h.rt.Close()
	for _, s := range h.shards {
		h.killShard(s)
	}

	// --- snapshot-integrity epilogue, deterministic by construction:
	// corrupt one stored snapshot, boot a fresh daemon on the store, and
	// require the checksum to turn the rot into a 404 cold start while an
	// intact sibling restores bit-identically — with both outcomes
	// visible in the daemon's /metrics.
	if err := h.fstore.CorruptNow(ids[0], *seed^0xC0FFEE); err != nil {
		fmt.Fprintln(os.Stderr, "chaos: scripting epilogue corruption:", err)
		return 1
	}
	fresh := &shardProc{idx: len(h.shards)}
	if err := h.startShard(fresh); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		return 1
	}
	defer h.killShard(fresh)
	dc := client.New(fresh.base())
	if _, err := dc.GetSession(ctx, ids[0]); !isStatus(err, http.StatusNotFound) {
		fmt.Fprintf(os.Stderr, "chaos: FAIL: corrupted snapshot should cold-start (404), got %v\n", err)
		return 1
	}
	v, err := dc.GetSession(ctx, ids[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: FAIL: intact snapshot did not rehydrate: %v\n", err)
		return 1
	}
	// The stored snapshot may be stale: a transient mis-route during the
	// soak can rehydrate a second copy of a session on another shard at
	// whatever epoch the store held then, that copy idles there, and at
	// teardown whichever copy drains last writes the store. Determinism
	// makes staleness harmless — every copy is on the same trajectory, it
	// only costs replay — so step the restored engine to a fixed epoch
	// and require bit-identity there. Ahead of the live copy would be a
	// real bug, though.
	if v.Epochs > int64(target+1) {
		fmt.Fprintf(os.Stderr, "chaos: FAIL: rehydrated %s at %d epochs, past the live copy's %d\n",
			ids[1], v.Epochs, target+1)
		return 1
	}
	for v.Epochs < int64(target+2) {
		if v, err = dc.StepEpoch(ctx, ids[1]); err != nil {
			fmt.Fprintf(os.Stderr, "chaos: FAIL: stepping rehydrated %s: %v\n", ids[1], err)
			return 1
		}
	}
	got, err := canonicalView(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		return 1
	}
	if got != baselineNext[ids[1]] {
		fmt.Fprintf(os.Stderr, "chaos: FAIL: rehydrated %s diverged from baseline\n  baseline: %s\n  chaos:    %s\n",
			ids[1], baselineNext[ids[1]], got)
		return 1
	}
	stext, err := dc.Metrics(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos: scraping shard metrics:", err)
		return 1
	}
	corrupt := metricSum(stext, "rebudgetd_snapshots_total", `op="corrupt"`)
	verified := metricSum(stext, "rebudgetd_snapshots_total", `op="verified"`)
	fmt.Printf("chaos: epilogue: corrupt snapshots caught=%g, checksum-verified restores=%g\n", corrupt, verified)

	// --- verdict ---
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "chaos: FAIL: "+format+"\n", args...)
		return 1
	}
	if mismatches > 0 {
		return fail("%d sessions diverged from the undisturbed baseline", mismatches)
	}
	if errRate > *maxErrorRate {
		return fail("client error rate %.1f%% exceeds bound %.1f%%", 100*errRate, 100**maxErrorRate)
	}
	if hasShardOutages(events) && opens < 1 {
		return fail("schedule had shard outages but no breaker ever opened")
	}
	if h.shardsAdded > 0 && epoch < float64(1+h.shardsAdded) {
		return fail("%d shards admitted but membership epoch is %g", h.shardsAdded, epoch)
	}
	if h.movedByElastic > 0 && migrations < 1 {
		return fail("shard admission scheduled %d moves but no migration completed", h.movedByElastic)
	}
	if hasShardAdds(events) && h.shardsAdded == 0 {
		return fail("schedule had add-shard events but none admitted a shard")
	}
	if corrupt < 1 {
		return fail("scripted corruption was not caught by the snapshot checksum")
	}
	if verified < 1 {
		return fail("no checksum-verified restore was recorded")
	}
	fmt.Println("chaos: PASS")
	return 0
}

// apply executes one scripted chaos event against the live tier.
func (h *harness) apply(e chaos.Event) {
	h.log.Info("chaos event", "event", e.String())
	switch e.Kind {
	case chaos.EventPartition:
		h.tr.Partition(h.shards[e.Shard%len(h.shards)].base())
	case chaos.EventHeal:
		h.tr.Heal(h.shards[e.Shard%len(h.shards)].base())
	case chaos.EventKillShard:
		h.killShard(h.shards[e.Shard%len(h.shards)])
	case chaos.EventRestartShard:
		s := h.shards[e.Shard%len(h.shards)]
		if s.down {
			if err := h.startShard(s); err != nil {
				h.log.Warn("shard restart failed", "shard", s.idx, "err", err)
			}
		}
	case chaos.EventLatencySpike:
		h.inj.SetLatencyRate(0.5)
	case chaos.EventLatencyNormal:
		h.inj.SetLatencyRate(h.baseLatencyRate)
	case chaos.EventCorruptSnapshot:
		// Best effort: the session may not have a stored snapshot yet.
		if err := h.fstore.CorruptNow(e.Session, e.Draw); err != nil {
			h.log.Info("corruption event found no snapshot", "session", e.Session)
		}
	case chaos.EventAddShard:
		h.addShard()
	}
}

// addShard grows the tier mid-run: boot a fresh shard on the shared
// snapshot store and admit it through the router's elastic membership.
// The admission probe rides the chaos transport, so background noise can
// eat an attempt — retry a few times before conceding the event.
func (h *harness) addShard() {
	s := &shardProc{idx: len(h.shards)}
	if err := h.startShard(s); err != nil {
		h.log.Warn("add-shard event could not boot a shard", "err", err)
		return
	}
	h.shards = append(h.shards, s)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for try := 0; try < 8; try++ {
		moved, err := h.rt.AddShard(ctx, s.base())
		if err == nil {
			h.shardsAdded++
			h.movedByElastic += moved
			h.log.Info("shard added mid-run", "shard", s.idx, "addr", s.addr, "moved", moved)
			return
		}
		h.log.Info("add-shard admission retry", "try", try, "err", err)
		time.Sleep(time.Duration(try+1) * 50 * time.Millisecond)
	}
	h.log.Warn("add-shard event never admitted its shard", "shard", s.idx)
}

// specFor builds the mixed population: even slots re-solve the analytic
// market each epoch, odd slots step the execution-driven sim chip.
func specFor(i int, id string) server.SessionSpec {
	if i%2 == 0 {
		return server.SessionSpec{
			ID: id, Workload: server.WorkloadSpec{Fig3: true}, Mechanism: "rebudget-0.05",
		}
	}
	return server.SessionSpec{
		ID: id, Mode: server.ModeSim,
		Workload:  server.WorkloadSpec{Fig3: true},
		Mechanism: "rebudget-0.05",
		Sim:       &server.SimSpec{Seed: uint64(i), WarmupEpochs: 1, ReallocEvery: 1},
	}
}

// baselineViews runs the population on one clean daemon, no router and no
// chaos, and captures each session's canonical view after epochs target+1
// and target+2. A view only carries allocation/sim detail computed by a
// live epoch — a rehydrated session holds restored engine state but no
// rendered view — so the chaos run converges everyone to target and then
// the comparison epoch (target+1) is computed fresh on both sides. That is
// the stronger claim anyway: the warm-restored engine must continue the
// undisturbed trajectory bit-for-bit, not merely echo a stored view. The
// second capture (target+2) serves the snapshot-integrity epilogue the
// same way, one epoch later.
func baselineViews(quiet *slog.Logger, ids []string, specs map[string]server.SessionSpec, target int) (map[string]string, map[string]string, error) {
	srv := server.New(server.Config{Logger: quiet})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	c := client.New("http://" + ln.Addr().String())
	ctx := context.Background()
	at1 := make(map[string]string, len(ids))
	at2 := make(map[string]string, len(ids))
	for _, id := range ids {
		if _, err := c.CreateSession(ctx, specs[id]); err != nil {
			return nil, nil, fmt.Errorf("baseline create %s: %w", id, err)
		}
		if _, err := c.StepEpochs(ctx, id, target); err != nil {
			return nil, nil, fmt.Errorf("baseline step %s: %w", id, err)
		}
		v, err := c.StepEpoch(ctx, id)
		if err != nil {
			return nil, nil, fmt.Errorf("baseline step %s: %w", id, err)
		}
		if at1[id], err = canonicalView(v); err != nil {
			return nil, nil, err
		}
		if v, err = c.StepEpoch(ctx, id); err != nil {
			return nil, nil, fmt.Errorf("baseline step %s: %w", id, err)
		}
		if at2[id], err = canonicalView(v); err != nil {
			return nil, nil, err
		}
	}
	return at1, at2, nil
}

// canonicalView scrubs the run-dependent fields out of a view — wall
// clocks, solver iteration counts (warm restores legitimately re-converge
// in fewer steps), equilibrium telemetry — and returns the rest as JSON.
// What survives is exactly the state the paper's numerics determine:
// allocations, budgets, utilities, lambdas, bounds, chip frequencies and
// epoch counts. Two runs agree here only if the allocation pipeline was
// bit-identical.
func canonicalView(v server.SessionView) (string, error) {
	v.CreatedAt, v.LastUsed = time.Time{}, time.Time{}
	v.LastError = ""
	if v.Alloc != nil {
		a := *v.Alloc
		a.Iterations = 0
		a.EquilibriumRuns = 0
		v.Alloc = &a
	}
	if v.Sim != nil {
		s := *v.Sim
		s.Equilibrium = server.EquilibriumView{}
		v.Sim = &s
	}
	buf, err := json.Marshal(v)
	return string(buf), err
}

// createWithRetry places a session, retrying through transient chaos. A
// 409 means a prior attempt's create landed but its response was eaten —
// the session exists, which is what we wanted.
func createWithRetry(ctx context.Context, c *client.Client, spec server.SessionSpec) error {
	var last error
	for try := 0; try < 8; try++ {
		_, err := c.CreateSession(ctx, spec)
		if err == nil || isStatus(err, http.StatusConflict) {
			return nil
		}
		last = err
		time.Sleep(time.Duration(try+1) * 25 * time.Millisecond)
	}
	return last
}

// getWithRetry reads id's view, retrying through transient chaos — which
// includes 404s: a background drop can briefly mark the primary unhealthy,
// failing the request over to a shard that holds neither the session nor a
// snapshot, and that shard honestly answers "no session". The probes flip
// the primary green again within a sweep, so a session that still 404s
// after the whole backoff ladder really is lost and the caller fails.
func getWithRetry(ctx context.Context, c *client.Client, id string) (server.SessionView, error) {
	var v server.SessionView
	var err error
	for try := 0; try < 10; try++ {
		if v, err = c.GetSession(ctx, id); err == nil {
			return v, nil
		}
		time.Sleep(time.Duration(try+1) * 25 * time.Millisecond)
	}
	return v, err
}

// driveTo steps id up to exactly goal epochs and returns the view there,
// retrying through transient chaos. Every iteration re-reads before
// stepping, which handles all the ways chaos splits observation from
// effect: a reset that ate a committed step's response (the re-read sees
// the advance, no double-step), and a mis-route that lands on a stale
// rehydrated copy of the session on another shard (the loop just steps
// that copy up the same deterministic trajectory — replay cost, not
// divergence). A copy past goal means the harness double-stepped: a bug,
// reported, never papered over.
func driveTo(ctx context.Context, c *client.Client, id string, goal int64) (server.SessionView, error) {
	var v server.SessionView
	var lastErr error
	for try := 0; try < 20+2*int(goal); try++ {
		ve, err := c.GetSession(ctx, id)
		if err != nil {
			lastErr = err
			time.Sleep(25 * time.Millisecond)
			continue
		}
		v = ve
		if v.Epochs == goal {
			return v, nil
		}
		if v.Epochs > goal {
			return v, fmt.Errorf("session at %d epochs, past goal %d", v.Epochs, goal)
		}
		if sv, err := c.StepEpoch(ctx, id); err == nil {
			if sv.Epochs == goal {
				return sv, nil
			}
		} else {
			lastErr = err
			time.Sleep(25 * time.Millisecond)
		}
	}
	return v, fmt.Errorf("did not reach %d epochs (last error: %v)", goal, lastErr)
}

func isStatus(err error, code int) bool {
	var ae *client.APIError
	return errors.As(err, &ae) && ae.Status == code
}

func hasShardOutages(events []chaos.Event) bool {
	for _, e := range events {
		if e.Kind == chaos.EventPartition || e.Kind == chaos.EventKillShard {
			return true
		}
	}
	return false
}

func hasShardAdds(events []chaos.Event) bool {
	for _, e := range events {
		if e.Kind == chaos.EventAddShard {
			return true
		}
	}
	return false
}

// metricSum sums the values of name's samples whose label set contains
// labelSub (every sample when labelSub is empty) in a Prometheus text
// exposition.
func metricSum(text, name, labelSub string) float64 {
	total := 0.0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		// Only "{labels} value" or " value" continue this metric; anything
		// else is a longer metric name sharing the prefix.
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		if labelSub != "" && !strings.Contains(rest, labelSub) {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			total += v
		}
	}
	return total
}
