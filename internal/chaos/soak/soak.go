// Package soak is the chaos soak of the sharded serving tier: it boots
// in-process rebudgetd shards over one shared, fault-injected snapshot
// store, puts a router in front of them with a chaos transport on the proxy
// data path, drives a mixed market/sim session population through the tier
// while a seeded schedule kills and restarts shards, partitions and heals
// their data paths, spikes injected latency, corrupts stored snapshots and —
// mid-outage — grows the tier by a shard through the router's elastic
// membership, and then asserts what robustness actually means here:
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
// The tier is in-process, not the real binaries, because the soak injects
// router.Config.Transport and wraps the snapshot store; otherwise it is an
// e2e scenario like the others, run on an e2e.Harness. The schedule, the
// network faults and the disk faults all derive from the seed; that the
// schedule itself is a pure function of the seed is pinned by
// chaos.TestScheduleDeterministicAndWellFormed.
package soak

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"rebudget/internal/chaos"
	"rebudget/internal/e2e"
	"rebudget/internal/router"
	"rebudget/internal/server"
	"rebudget/internal/server/client"
)

// The soak's shape. The per-session epoch target, steps/(2·sessions), is low
// enough that the population converges well inside the soak and high enough
// that kills land mid-progress.
const (
	steps           = 160 // driver steps in the soak loop
	sessions        = 6   // mixed market/sim population
	shards          = 2   // rebudgetd shards behind the router at boot
	shardAdds       = 1   // mid-outage shard additions in the schedule
	target          = steps / (2 * sessions)
	window          = 5                    // epochs past target the baseline records; see baselineViews
	stepSleep       = 5 * time.Millisecond // lets probes interleave with driver steps
	maxErrorRate    = 0.6                  // client-visible soak errors above this fail the run
	baseLatencyRate = 0.05
)

// Result is what a passing soak observed.
type Result struct {
	Sessions     int     // population size; none lost, or Run fails the scenario
	Identical    int     // sessions whose post-chaos epoch matched the baseline bit for bit
	ColdRestarts int     // sessions recreated from their spec after scripted corruption
	ErrorRate    float64 // client-visible errors per attempt during the soak
}

// Schedule is the seeded event list Run executes.
func Schedule(seed uint64) []chaos.Event {
	return chaos.NewSchedule(chaos.ScheduleConfig{
		Seed: seed, Steps: steps, Shards: shards, Sessions: sessionIDs(),
		Partitions: 2, Kills: 1, LatencySpikes: 1, Corruptions: 2,
		ShardAdds: shardAdds,
	})
}

func sessionIDs() []string {
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("cs-%d", i)
	}
	return ids
}

// harness owns the whole in-process tier.
type harness struct {
	*e2e.Harness
	quiet  *slog.Logger
	inj    *chaos.Injector
	tr     *chaos.Transport
	fstore *chaos.FaultySnapshotStore
	shards []*shardProc
	rt     *router.Router

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
	go func(hs *http.Server) { _ = hs.Serve(ln) }(s.hs) // returns when killShard closes hs
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

// Run executes the soak for seed on h and returns what it observed; the
// first violated invariant fails the scenario.
func Run(eh *e2e.Harness, seed uint64) Result {
	h := &harness{Harness: eh, quiet: slog.New(slog.NewTextHandler(io.Discard, nil))}
	ctx := h.Ctx
	ids := sessionIDs()
	events := Schedule(seed)
	specs := make(map[string]server.SessionSpec, len(ids))
	for i, id := range ids {
		specs[id] = specFor(i, id)
	}
	res := Result{Sessions: len(ids)}
	h.Logf("seed=%d steps=%d sessions=%d shards=%d target-epochs=%d events=%d",
		seed, steps, sessions, shards, target, len(events))

	// --- undisturbed baseline: same specs, one clean daemon, no chaos ---
	baseline := h.baselineViews(ids, specs)
	h.Logf("baseline captured (%d sessions, comparison epochs %d-%d)", len(ids), target+1, target+window)

	// --- the tier under test ---
	files, err := server.NewFileSnapshotStore(filepath.Join(h.Dir(), "snapshots"))
	h.Must(err)
	// Background network noise on the data path; the scripted windows
	// (partitions, latency spikes) layer on top. Disk-fault rates stay
	// zero here: disk damage comes only from scripted corruption events,
	// so the zero-lost-sessions invariant is assertable per seed.
	h.inj = chaos.New(chaos.Config{
		Seed:        seed,
		LatencyRate: baseLatencyRate,
		LatencyMin:  500 * time.Microsecond,
		LatencyMax:  3 * time.Millisecond,
		DropRate:    0.02,
		Blip5xxRate: 0.02,
		ResetRate:   0.02,
	})
	h.tr = chaos.NewTransport(h.inj, nil)
	h.fstore = chaos.NewFaultySnapshotStore(files, h.inj)
	defer func() {
		for _, s := range h.shards {
			h.killShard(s)
		}
	}()

	bases := make([]string, shards)
	for i := range bases {
		h.shards = append(h.shards, &shardProc{idx: i})
		h.Must(h.startShard(h.shards[i]))
		bases[i] = h.shards[i].base()
	}
	h.rt, err = router.New(router.Config{
		Backends:          bases,
		ProbeInterval:     50 * time.Millisecond,
		Transport:         h.tr,
		Breaker:           router.BreakerConfig{OpenTimeout: 400 * time.Millisecond},
		MigrationInterval: 20 * time.Millisecond,
		MigrationBudget:   4,
		Logger:            h.quiet,
	})
	h.Must(err)
	stopRouter := sync.OnceFunc(h.rt.Close)
	defer stopRouter()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	h.Must(err)
	rtHTTP := &http.Server{Handler: h.rt.Handler()}
	go func() { _ = rtHTTP.Serve(rln) }() // returns when rtHTTP closes
	defer rtHTTP.Close()
	rc := client.New("http://"+rln.Addr().String(), client.WithTimeout(10*time.Second))

	// Place the population through the router (chaos background noise is
	// already live, so creates get a short retry loop; a 409 means an
	// earlier attempt landed despite its torn response).
	for _, id := range ids {
		h.Must(createWithRetry(ctx, rc, specs[id]))
	}
	h.Logf("%d sessions placed through the router at %s", len(ids), rln.Addr())

	// --- the soak ---
	byStep := make(map[int][]chaos.Event)
	for _, e := range events {
		byStep[e.Step] = append(byStep[e.Step], e)
	}
	var attempts, errs, notFound int
	for step := 1; step <= steps; step++ {
		for _, e := range byStep[step] {
			h.apply(e)
		}
		id := ids[step%len(ids)]
		v, err := rc.GetSession(ctx, id)
		attempts++
		switch {
		case err == nil:
			if v.Epochs < target {
				attempts++
				if _, err := rc.StepEpoch(ctx, id); err != nil {
					errs++
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
		time.Sleep(stepSleep)
	}
	res.ErrorRate = float64(errs) / float64(attempts)
	h.Logf("soak done: %d attempts, %d errors (%.1f%%), %d not-found", attempts, errs, 100*res.ErrorRate, notFound)

	// --- quiesce: end every disturbance, let probes re-converge ---
	h.inj.SetLatencyRate(baseLatencyRate)
	for _, s := range h.shards {
		h.tr.Heal(s.base())
		if s.down {
			h.Must(h.startShard(s))
		}
	}
	time.Sleep(300 * time.Millisecond) // a few probe sweeps

	// --- convergence: every session must reach the target ---
	converged := false
	for round := 0; round < 50 && !converged; round++ {
		converged = true
		for _, id := range ids {
			v, err := rc.GetSession(ctx, id)
			if isStatus(err, http.StatusNotFound) {
				// The snapshot is gone (scripted corruption): a cold
				// restart from the same spec is deterministic, so the
				// session still converges to the baseline state.
				h.Must(createWithRetry(ctx, rc, specs[id]))
				res.ColdRestarts++
				converged = false
				continue
			}
			for err == nil && v.Epochs < target {
				v, err = rc.StepEpoch(ctx, id)
			}
			converged = converged && err == nil
		}
		if !converged {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !converged {
		h.Fatalf("sessions did not converge after the chaos ended (lost sessions)")
	}

	// --- bit-identity against the baseline: compute one fresh epoch per
	// session through the router and require it to match the undisturbed
	// run's same epoch. Sessions that survived in memory continue from live
	// state; sessions that failed over or restarted continue from restored
	// snapshots; cold-restarted sessions recomputed the whole trajectory —
	// all three paths must land on the same bytes. Background chaos noise
	// is still live, so each step retries through transient blips.
	var diverged []string
	for _, id := range ids {
		v, err := stepPast(ctx, rc, specs[id], target)
		if err != nil {
			h.Fatalf("final epoch of %s: %v", id, err)
		}
		if want, got := baseline[id][v.Epochs], h.canonicalView(v); want == got {
			res.Identical++
		} else {
			diverged = append(diverged, fmt.Sprintf("%s at epoch %d\n  baseline: %s\n  chaos:    %s", id, v.Epochs, want, got))
		}
	}
	h.Logf("converged: %d/%d sessions bit-identical to baseline, %d cold restarts", res.Identical, len(ids), res.ColdRestarts)

	// --- router observability: the breakers must have visibly worked ---
	rm, err := e2e.Scrape(ctx, "http://"+rln.Addr().String())
	h.Must(err)
	opens, _ := rm.Sum("rebudget_router_breaker_transitions_total", map[string]string{"to": "open"})
	retries, _ := rm.Sum("rebudget_router_retries_total", nil)
	failovers, _ := rm.Sum("rebudget_router_failovers_total", nil)
	aborted, _ := rm.Sum("rebudget_router_relay_aborted_total", nil)
	migrations, _ := rm.Sum("rebudget_router_migrations_total", nil)
	epoch, _ := rm.Sum("rebudget_router_membership_epoch", nil)
	h.Logf("router saw %g breaker opens, %g retries, %g failovers, %g relays aborted mid-body", opens, retries, failovers, aborted)
	h.Logf("elastic: membership epoch %g, %g sessions migrated", epoch, migrations)

	// --- tear the tier down; every resident session snapshots out ---
	_ = rtHTTP.Close()
	stopRouter()
	for _, s := range h.shards {
		h.killShard(s)
	}
	corrupt, verified := h.epilogue(seed, ids, baseline)
	h.Logf("epilogue: corrupt snapshots caught=%g, checksum-verified restores=%g", corrupt, verified)

	// --- verdict ---
	switch {
	case len(diverged) > 0:
		h.Fatalf("%d sessions diverged from the undisturbed baseline: %s", len(diverged), diverged)
	case res.ErrorRate > maxErrorRate:
		h.Fatalf("client error rate %.1f%% exceeds bound %.1f%%", 100*res.ErrorRate, 100*maxErrorRate)
	case opens < 1:
		h.Fatalf("schedule had shard outages but no breaker ever opened")
	case h.shardsAdded == 0:
		h.Fatalf("schedule had add-shard events but none admitted a shard")
	case epoch < float64(1+h.shardsAdded):
		h.Fatalf("%d shards admitted but membership epoch is %g", h.shardsAdded, epoch)
	case h.movedByElastic > 0 && migrations < 1:
		h.Fatalf("shard admission scheduled %d moves but no migration completed", h.movedByElastic)
	case corrupt < 1:
		h.Fatalf("scripted corruption was not caught by the snapshot checksum")
	case verified < 1:
		h.Fatalf("no checksum-verified restore was recorded")
	}
	return res
}

// epilogue is the snapshot-integrity check, deterministic by construction:
// corrupt one stored snapshot, boot a fresh daemon on the store, and require
// the checksum to turn the rot into a 404 cold start while an intact sibling
// restores bit-identically — with both outcomes visible in the daemon's
// /metrics, whose corrupt and verified snapshot counts it returns.
func (h *harness) epilogue(seed uint64, ids []string, baseline map[string]map[int64]string) (corrupt, verified float64) {
	h.Must(h.fstore.CorruptNow(ids[0], seed^0xC0FFEE))
	fresh := &shardProc{idx: len(h.shards)}
	h.Must(h.startShard(fresh))
	defer h.killShard(fresh)
	dc := client.New(fresh.base())
	if _, err := dc.GetSession(h.Ctx, ids[0]); !isStatus(err, http.StatusNotFound) {
		h.Fatalf("corrupted snapshot should cold-start (404), got %v", err)
	}
	v, err := dc.GetSession(h.Ctx, ids[1])
	if err != nil {
		h.Fatalf("intact snapshot did not rehydrate: %v", err)
	}
	// The stored snapshot is whichever copy of the session drained last —
	// see baselineViews on second copies — so the restored engine may stand
	// anywhere on the trajectory. Determinism makes that harmless: step it
	// one fresh epoch, past the target, and require bit-identity there.
	for stepped := false; !stepped || v.Epochs <= target; stepped = true {
		v, err = dc.StepEpoch(h.Ctx, ids[1])
		h.Must(err)
	}
	if want, got := baseline[ids[1]][v.Epochs], h.canonicalView(v); want != got {
		h.Fatalf("rehydrated %s diverged from baseline at epoch %d\n  baseline: %s\n  chaos:    %s", ids[1], v.Epochs, want, got)
	}
	sm, err := e2e.Scrape(h.Ctx, fresh.base())
	h.Must(err)
	corrupt, _ = sm.Sum("rebudgetd_snapshots_total", map[string]string{"op": "corrupt"})
	verified, _ = sm.Sum("rebudgetd_snapshots_total", map[string]string{"op": "verified"})
	return corrupt, verified
}

// apply executes one scripted chaos event against the live tier.
func (h *harness) apply(e chaos.Event) {
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
				h.Logf("shard %d restart failed: %v", s.idx, err)
			}
		}
	case chaos.EventLatencySpike:
		h.inj.SetLatencyRate(0.5)
	case chaos.EventLatencyNormal:
		h.inj.SetLatencyRate(baseLatencyRate)
	case chaos.EventCorruptSnapshot:
		// Best effort: the session may not have a stored snapshot yet.
		_ = h.fstore.CorruptNow(e.Session, e.Draw)
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
		h.Logf("add-shard event could not boot a shard: %v", err)
		return
	}
	h.shards = append(h.shards, s)
	ctx, cancel := context.WithTimeout(h.Ctx, 10*time.Second)
	defer cancel()
	for try := 0; try < 8; try++ {
		moved, err := h.rt.AddShard(ctx, s.base())
		if err == nil {
			h.shardsAdded++
			h.movedByElastic += moved
			return
		}
		time.Sleep(time.Duration(try+1) * 50 * time.Millisecond)
	}
	h.Logf("add-shard event never admitted shard %d", s.idx)
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
// chaos, and captures each session's canonical view after every epoch from
// target+1 to target+window. A view only carries allocation/sim detail
// computed by a live epoch — a rehydrated session holds restored engine
// state but no rendered view — so the chaos run converges everyone to
// target and then one further epoch is computed fresh on both sides. That
// is the stronger claim anyway: the warm-restored engine must continue the
// undisturbed trajectory bit-for-bit, not merely echo a stored view.
//
// Which epoch that is floats inside the window. A transient mis-route can
// rehydrate a stale second copy of a session on another shard; reads and
// steps then land on either copy, so the copy that answers the final step
// may stand a few epochs past the target (the driver read the stale copy
// and stepped the live one), and the epilogue restores whichever copy
// drained last. Every copy is on the same deterministic trajectory, so the
// comparison holds at whatever epoch it lands on; a copy beyond the window
// has no baseline and fails as a divergence.
func (h *harness) baselineViews(ids []string, specs map[string]server.SessionSpec) map[string]map[int64]string {
	srv := server.New(server.Config{Logger: h.quiet})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	h.Must(err)
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }() // returns when hs closes
	defer hs.Close()
	c := client.New("http://" + ln.Addr().String())
	views := make(map[string]map[int64]string, len(ids))
	for _, id := range ids {
		_, err := c.CreateSession(h.Ctx, specs[id])
		h.Must(err)
		_, err = c.StepEpochs(h.Ctx, id, target)
		h.Must(err)
		views[id] = make(map[int64]string, window)
		for i := 0; i < window; i++ {
			v, err := c.StepEpoch(h.Ctx, id)
			h.Must(err)
			views[id][v.Epochs] = h.canonicalView(v)
		}
	}
	return views
}

// canonicalView scrubs the run-dependent fields out of a view — wall
// clocks, solver iteration counts (warm restores legitimately re-converge
// in fewer steps), equilibrium telemetry — and returns the rest as JSON.
// What survives is exactly the state the paper's numerics determine:
// allocations, budgets, utilities, lambdas, bounds, chip frequencies and
// epoch counts. Two runs agree here only if the allocation pipeline was
// bit-identical.
func (h *harness) canonicalView(v server.SessionView) string {
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
	h.Must(err)
	return string(buf)
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

// stepPast steps spec's session until a step answers with more than floor
// epochs and returns that freshly computed view, retrying through transient
// chaos. A reset may eat a committed step's response and a mis-route may land
// on a stale copy that is still behind; both only cost further steps. A 404
// here means a probe flap homed the session's only copy on a shard that is
// not its primary: like the convergence phase, restart it cold from its spec.
func stepPast(ctx context.Context, c *client.Client, spec server.SessionSpec, floor int64) (server.SessionView, error) {
	var lastErr error
	for try := 0; try < 20+2*int(floor); try++ {
		v, err := c.StepEpoch(ctx, spec.ID)
		switch {
		case err == nil && v.Epochs > floor:
			return v, nil
		case isStatus(err, http.StatusNotFound):
			lastErr = createWithRetry(ctx, c, spec)
		case err != nil:
			lastErr = err
			time.Sleep(25 * time.Millisecond)
		}
	}
	return server.SessionView{}, fmt.Errorf("never stepped past %d epochs (last error: %v)", floor, lastErr)
}

func isStatus(err error, code int) bool {
	var ae *client.APIError
	return errors.As(err, &ae) && ae.Status == code
}
