package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"rebudget/internal/numeric"
	"rebudget/internal/server"
	"rebudget/internal/server/client"
	"rebudget/internal/workload"
)

var bg = context.Background()

// serveBase is what the three serve workloads share: the tier, the seam
// bookkeeping, and the /metrics baseline the run's counters are read against.
type serveBase struct {
	t  *tier
	tr *tracer

	baseShards, baseRouter promSample
	began                  time.Time
}

// call runs one client call under a span published under the given keys
// (the session id it touches), so the router and snapshot seams nest under it.
func (b *serveBase) call(root int, name string, f func() error, keys ...string) error {
	sp := b.tr.start(root, name)
	for _, k := range keys {
		b.tr.push(k, sp)
	}
	err := f()
	for _, k := range keys {
		b.tr.pop(k, sp)
	}
	b.tr.end(sp)
	return err
}

func (b *serveBase) begin() error {
	var err error
	b.baseShards, b.baseRouter, err = b.t.scrape(bg)
	b.began = time.Now()
	return err
}

// layerCounts reads the daemons' own counters over the timed phase.
func (b *serveBase) layerCounts() map[string]float64 {
	shards, rtr, err := b.t.scrape(bg)
	if err != nil {
		return nil
	}
	wall := time.Since(b.began).Seconds()
	ds, dr := shards.delta(b.baseShards), rtr.delta(b.baseRouter)
	return map[string]float64{
		"server.eq_runs":            ds.sum("rebudgetd_equilibrium_runs_total"),
		"server.eq_rounds":          ds.sum("rebudgetd_equilibrium_rounds_total"),
		"server.eq_wall_share":      ds.sum("rebudgetd_equilibrium_wall_seconds_total") / wall,
		"server.rejected_429":       ds.sum("rebudgetd_requests_total", `code="429"`),
		"server.http_5xx":           ds.sum("rebudgetd_requests_total", `code="5`),
		"server.snap_restores":      ds.sum("rebudgetd_snapshots_total", `op="restore"`),
		"server.snap_corrupt":       ds.sum("rebudgetd_snapshots_total", `op="corrupt"`),
		"router.failovers":          dr.sum("rebudget_router_failovers_total"),
		"router.retries":            dr.sum("rebudget_router_retries_total"),
		"router.breaker_rejections": dr.sum("rebudget_router_breaker_rejections_total"),
	}
}

// verifyClean holds the tier to the run's zero-failure contract using its
// lifetime counters: nothing refused, nothing failed, nothing retried.
func (b *serveBase) verifyClean() []string {
	shards, rtr, err := b.t.scrape(bg)
	if err != nil {
		return []string{err.Error()}
	}
	var fails []string
	for _, c := range []struct {
		what string
		n    float64
	}{
		{"shard 429s", shards.sum("rebudgetd_requests_total", `code="429"`)},
		{"shard 5xx", shards.sum("rebudgetd_requests_total", `code="5`)},
		{"shard rejections", shards.sum("rebudgetd_rejected_total")},
		{"corrupt snapshots", shards.sum("rebudgetd_snapshots_total", `op="corrupt"`)},
		{"snapshot load errors", shards.sum("rebudgetd_snapshots_total", `op="load_error"`)},
		{"snapshot restore errors", shards.sum("rebudgetd_snapshots_total", `op="restore_error"`)},
		{"snapshot save errors", shards.sum("rebudgetd_snapshots_total", `op="save_error"`)},
		{"router failovers", rtr.sum("rebudget_router_failovers_total")},
		{"router retries", rtr.sum("rebudget_router_retries_total")},
	} {
		if c.n != 0 {
			fails = append(fails, fmt.Sprintf("%s: %g", c.what, c.n))
		}
	}
	return fails
}

func (b *serveBase) close() { b.t.close() }

// setupFor rebuilds the market a session spec describes, for the capacity
// the served allocations must conserve.
func setupFor(w server.WorkloadSpec) (*workload.Setup, error) {
	var b workload.Bundle
	var err error
	if w.Fig3 {
		b, err = workload.Figure3Bundle()
	} else {
		b, err = workload.Generate(workload.Category(w.Category), w.Cores, numeric.NewRand(w.Seed))
	}
	if err != nil {
		return nil, err
	}
	return workload.NewSetup(b)
}

// checkView verifies one served view: the epoch count the harness expects,
// capacity conserved, and Theorem 2 on the view's own numbers. A market that
// stopped at the §6.4 iteration fail-safe is a slow op, not a failed one.
func checkView(v server.SessionView, epochs int64, capacity []float64) error {
	if v.Epochs != epochs {
		return fmt.Errorf("session %s: %d epochs served, %d requested", v.ID, v.Epochs, epochs)
	}
	a := v.Alloc
	if a == nil {
		return fmt.Errorf("session %s: no allocation", v.ID)
	}
	if err := checkConserved(capacity, a.Allocations); err != nil {
		return fmt.Errorf("session %s: %w", v.ID, err)
	}
	if a.EFBound != nil && a.EnvyFreeness != nil && *a.EnvyFreeness < *a.EFBound-theoremTol {
		return fmt.Errorf("session %s: envy-freeness %g below Theorem 2 bound %g", v.ID, *a.EnvyFreeness, *a.EFBound)
	}
	return nil
}

// bare is a single in-process daemon driven through Handler().ServeHTTP —
// no sockets, no router. Replaying a session's requests on it must give the
// view the tier gave: the tier is the single daemon, sharded.
type bare struct {
	srv *server.Server
	h   http.Handler
}

func newBare(cfg server.Config) *bare {
	cfg.IdleTTL, cfg.ParkAfter, cfg.Logger = -1, -1, discardLog()
	s := server.New(cfg)
	return &bare{srv: s, h: s.Handler()}
}

// do serves one request in-process and decodes a 2xx JSON body into out.
func (b *bare) do(method, path string, in, out any) (int, error) {
	var body *bytes.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(buf)
	} else {
		body = bytes.NewReader(nil)
	}
	rec := httptest.NewRecorder()
	b.h.ServeHTTP(rec, httptest.NewRequest(method, path, body))
	if rec.Code < 200 || rec.Code > 299 {
		return rec.Body.Len(), fmt.Errorf("%s %s: %d %s", method, path, rec.Code, rec.Body.String())
	}
	n := rec.Body.Len()
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			return n, err
		}
	}
	return n, nil
}

var epochOne = map[string]int{"epochs": 1} // what client.StepEpoch posts

// sameView compares two views field by field, wall-clock stamps aside.
func sameView(got, want server.SessionView) error {
	got.CreatedAt, got.LastUsed = time.Time{}, time.Time{}
	want.CreatedAt, want.LastUsed = time.Time{}, time.Time{}
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("session %s: tier view differs from a single daemon's replay", got.ID)
	}
	return nil
}

func viewDigest(d *digest, v server.SessionView) {
	d.str(v.ID)
	d.u64(uint64(v.Epochs))
	if v.Alloc != nil {
		d.matrix(v.Alloc.Allocations)
		d.floats(v.Alloc.Budgets)
	}
}

// --- serve_light ---

const (
	lightSessions = 32
	lightClients  = 2
)

// serveLight is the tier's steady path with the market taken out: 8-core
// equal-share sessions run no equilibrium at all, so router + server +
// client/net-http are the whole cost of an epoch.
type serveLight struct {
	serveBase
	ids      []string
	capacity []float64
	cls      []*client.Client
	sent     []int64              // per session, epochs requested so far
	first    []server.SessionView // per session, the view of its first epoch
}

func lightSpec(id string) server.SessionSpec {
	return server.SessionSpec{ID: id, Workload: server.WorkloadSpec{Fig3: true}, Mechanism: "equalshare"}
}

func newServeLight(seed uint64, tr *tracer) (instance, error) {
	t, err := newTier(tierConfig{tr: tr})
	if err != nil {
		return nil, err
	}
	w := &serveLight{serveBase: serveBase{t: t, tr: tr},
		sent: make([]int64, lightSessions), first: make([]server.SessionView, lightSessions)}
	s, err := setupFor(server.WorkloadSpec{Fig3: true})
	if err != nil {
		t.close()
		return nil, err
	}
	w.capacity = s.Capacity
	for c := 0; c < lightClients; c++ {
		w.cls = append(w.cls, t.routerClient())
	}
	for k := 0; k < lightSessions; k++ {
		id := fmt.Sprintf("light-%x-%02d", seed, k)
		if _, err := w.cls[0].CreateSession(bg, lightSpec(id)); err != nil {
			t.close()
			return nil, err
		}
		w.ids = append(w.ids, id)
	}
	return w, nil
}

func (w *serveLight) clients() int   { return lightClients }
func (w *serveLight) warmupOps() int { return 1000 }

func (w *serveLight) op(c, i, root int) error {
	k := (i%(lightSessions/lightClients))*lightClients + c // client c owns sessions ≡ c mod 2
	id := w.ids[k]
	var v server.SessionView
	err := w.call(root, "client.epoch", func() (err error) {
		v, err = w.cls[c].StepEpoch(bg, id)
		return err
	}, id)
	if err != nil {
		return err
	}
	w.sent[k]++
	if w.sent[k] == 1 {
		w.first[k] = v
	}
	return checkView(v, w.sent[k], w.capacity)
}

func (w *serveLight) verify() []string {
	fails := w.verifyClean()
	ref := newBare(server.Config{})
	defer ref.srv.Close()
	for k, id := range w.ids {
		v, err := w.cls[0].GetSession(bg, id)
		if err == nil {
			err = checkView(v, w.sent[k], w.capacity)
		}
		if err == nil && k < 2 { // replay a sample on a single daemon
			var rv server.SessionView
			if _, err = ref.do("POST", "/v1/sessions", lightSpec(id), nil); err == nil {
				for n := int64(0); n < w.sent[k] && err == nil; n++ {
					_, err = ref.do("POST", "/v1/sessions/"+id+"/epoch", epochOne, &rv)
				}
			}
			if err == nil {
				err = sameView(v, rv)
			}
		}
		if err != nil {
			fails = append(fails, err.Error())
		}
	}
	return fails
}

func (w *serveLight) digest() string {
	d := newDigest()
	for _, v := range w.first {
		viewDigest(&d, v)
	}
	return d.String()
}

// --- serve_heavy ---

const (
	heavySessions = 16
	heavyReplay   = 3 // rounds over the sessions replayed on a single daemon
)

var demandCycle = [3]float64{0.8, 1.0, 1.2}

// serveHeavy is the paper's monitor-then-reallocate loop (§4.3) through the
// product surface: a monitor posts one player's changed demand, then the
// 64-core market re-solves under ReBudget-20 from warm bids.
type serveHeavy struct {
	serveBase
	cl       *client.Client
	specs    []server.SessionSpec
	capacity [][]float64
	sent     []int64
	early    []server.SessionView // per session, the view after heavyReplay rounds
}

func heavySpec(seed uint64, k int) server.SessionSpec {
	return server.SessionSpec{
		ID:        fmt.Sprintf("heavy-%x-%d", seed, k),
		Workload:  server.WorkloadSpec{Category: "CPBB", Cores: 64, Seed: seed*64 + uint64(k) + 1},
		Mechanism: "rebudget-20",
	}
}

func heavyTelemetry(round int) server.TelemetrySpec {
	return server.TelemetrySpec{Players: []server.PlayerTelemetry{{Player: 0, Demand: demandCycle[round%3]}}}
}

func newServeHeavy(seed uint64, tr *tracer) (instance, error) {
	t, err := newTier(tierConfig{tr: tr})
	if err != nil {
		return nil, err
	}
	w := &serveHeavy{serveBase: serveBase{t: t, tr: tr}, cl: t.routerClient(),
		sent: make([]int64, heavySessions), early: make([]server.SessionView, heavySessions)}
	for k := 0; k < heavySessions; k++ {
		spec := heavySpec(seed, k)
		s, err := setupFor(spec.Workload)
		if err == nil {
			_, err = w.cl.CreateSession(bg, spec)
		}
		if err != nil {
			t.close()
			return nil, err
		}
		w.specs = append(w.specs, spec)
		w.capacity = append(w.capacity, s.Capacity)
	}
	return w, nil
}

func (w *serveHeavy) clients() int   { return 1 }
func (w *serveHeavy) warmupOps() int { return 2 * heavySessions }

func (w *serveHeavy) op(_, i, root int) error {
	k, round := i%heavySessions, i/heavySessions
	id := w.specs[k].ID
	err := w.call(root, "client.telemetry", func() error {
		_, err := w.cl.Telemetry(bg, id, heavyTelemetry(round))
		return err
	}, id)
	if err != nil {
		return err
	}
	var v server.SessionView
	err = w.call(root, "client.epoch", func() (err error) {
		v, err = w.cl.StepEpoch(bg, id)
		return err
	}, id)
	if err != nil {
		return err
	}
	w.sent[k]++
	if w.sent[k] == heavyReplay {
		w.early[k] = v
	}
	return checkView(v, w.sent[k], w.capacity[k])
}

func (w *serveHeavy) verify() []string {
	fails := w.verifyClean()
	for k, spec := range w.specs {
		v, err := w.cl.GetSession(bg, spec.ID)
		if err == nil {
			err = checkView(v, w.sent[k], w.capacity[k])
		}
		if err != nil {
			fails = append(fails, err.Error())
		}
	}
	// Replay session 0's first rounds on a single daemon.
	ref := newBare(server.Config{})
	defer ref.srv.Close()
	id := w.specs[0].ID
	var rv server.SessionView
	_, err := ref.do("POST", "/v1/sessions", w.specs[0], nil)
	for round := 0; round < heavyReplay && err == nil; round++ {
		if _, err = ref.do("POST", "/v1/sessions/"+id+"/telemetry", heavyTelemetry(round), nil); err == nil {
			_, err = ref.do("POST", "/v1/sessions/"+id+"/epoch", epochOne, &rv)
		}
	}
	if err == nil && w.sent[0] >= heavyReplay {
		err = sameView(w.early[0], rv)
	}
	if err != nil {
		fails = append(fails, err.Error())
	}
	return fails
}

func (w *serveHeavy) digest() string {
	d := newDigest()
	for _, v := range w.early {
		viewDigest(&d, v)
	}
	return d.String()
}

// --- serve_lifecycle ---

// lifecycleSpecs is the pool of distinct 8-core bundles, 400 per category:
// a run never meets one twice, so no single slow market sets its tail.
const lifecycleSpecs = 2400

const lifecycleWarmup = 24

// serveLifecycle uses the server the other way round from the steady path:
// every op builds an engine, snapshots it, rebuilds it from the snapshot and
// tears it down. A steady-state win that fattens sessions or snapshots
// shows up here as a loss. The snapshot store is in memory so that disk
// speed stays out of the gated numbers.
type serveLifecycle struct {
	serveBase
	cl       *client.Client
	raw      *http.Client
	seed     uint64
	specs    []server.SessionSpec
	capacity [][]float64
	ops      int
	firsts   []server.SessionView // final view of the first ops
}

func newServeLifecycle(seed uint64, tr *tracer) (instance, error) {
	t, err := newTier(tierConfig{tr: tr, snapshots: server.NewMemorySnapshotStore()})
	if err != nil {
		return nil, err
	}
	w := &serveLifecycle{serveBase: serveBase{t: t, tr: tr}, cl: t.routerClient(), seed: seed,
		firsts: make([]server.SessionView, lifecycleWarmup)}
	x := http.DefaultTransport.(*http.Transport).Clone()
	t.clients = append(t.clients, x)
	w.raw = &http.Client{Transport: x, Timeout: client.DefaultTimeout}
	cats := workload.Categories()
	for k := 0; k < lifecycleSpecs; k++ {
		spec := server.SessionSpec{
			Workload:  server.WorkloadSpec{Category: string(cats[k%len(cats)]), Cores: 8, Seed: seed*lifecycleSpecs + uint64(k) + 1},
			Mechanism: "equalbudget",
		}
		s, err := setupFor(spec.Workload)
		if err != nil {
			t.close()
			return nil, err
		}
		w.specs = append(w.specs, spec)
		w.capacity = append(w.capacity, s.Capacity)
	}
	return w, nil
}

func (w *serveLifecycle) clients() int   { return 1 }
func (w *serveLifecycle) warmupOps() int { return lifecycleWarmup }

// evict posts the router's migration verb; the typed client has no method
// for it because clients never call it in production — the router does.
func (w *serveLifecycle) evict(id string) error {
	resp, err := w.raw.Post(w.t.routerL.base+"/v1/sessions/"+id+"/evict", "application/json", http.NoBody)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("evict %s: status %d", id, resp.StatusCode)
	}
	return nil
}

func (w *serveLifecycle) op(_, i, root int) error {
	k := i % lifecycleSpecs
	spec := w.specs[k]
	spec.ID = fmt.Sprintf("life-%x-%d", w.seed, i)
	id := spec.ID
	w.ops++
	// The create is the one call whose path carries no id; publish it under
	// "" as well so the transport seam finds it.
	err := w.call(root, "client.create", func() error {
		_, err := w.cl.CreateSession(bg, spec)
		return err
	}, id, "")
	if err != nil {
		return err
	}
	var v server.SessionView
	for n := int64(1); n <= 4; n++ {
		if n == 4 {
			if err := w.call(root, "client.evict", func() error { return w.evict(id) }, id); err != nil {
				return err
			}
		}
		err := w.call(root, "client.epoch", func() (err error) {
			v, err = w.cl.StepEpoch(bg, id)
			return err
		}, id)
		if err == nil {
			err = checkView(v, n, w.capacity[k]) // n == 4: rehydrated, progress intact
		}
		if err != nil {
			return err
		}
	}
	var got server.SessionView
	err = w.call(root, "client.get", func() (err error) {
		got, err = w.cl.GetSession(bg, id)
		return err
	}, id)
	if err == nil {
		err = sameView(got, v)
	}
	if err != nil {
		return err
	}
	if i < lifecycleWarmup {
		w.firsts[i] = got
	}
	return w.call(root, "client.delete", func() error { return w.cl.DeleteSession(bg, id) }, id)
}

func (w *serveLifecycle) verify() []string {
	fails := w.verifyClean()
	shards, _, err := w.t.scrape(bg)
	if err != nil {
		return append(fails, err.Error())
	}
	// One restore per op, and nothing left behind.
	if n := shards.sum("rebudgetd_snapshots_total", `op="restore"`); n != float64(w.ops) {
		fails = append(fails, fmt.Sprintf("%g snapshot restores for %d ops", n, w.ops))
	}
	if n := shards.sum("rebudgetd_sessions_live"); n != 0 {
		fails = append(fails, fmt.Sprintf("%g sessions still live", n))
	}
	// An evicted-and-rehydrated session must equal an uninterrupted one.
	ref := newBare(server.Config{})
	defer ref.srv.Close()
	spec := w.specs[0]
	spec.ID = w.firsts[0].ID
	if spec.ID == "" {
		return fails
	}
	var rv server.SessionView
	_, err = ref.do("POST", "/v1/sessions", spec, nil)
	for n := 0; n < 4 && err == nil; n++ {
		_, err = ref.do("POST", "/v1/sessions/"+spec.ID+"/epoch", epochOne, &rv)
	}
	if err == nil {
		err = sameView(w.firsts[0], rv)
	}
	if err != nil {
		fails = append(fails, err.Error())
	}
	return fails
}

func (w *serveLifecycle) digest() string {
	d := newDigest()
	for _, v := range w.firsts {
		viewDigest(&d, v)
	}
	return d.String()
}
