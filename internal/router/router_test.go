package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/server"
	"rebudget/internal/server/client"
)

type shard struct {
	srv *server.Server
	ts  *httptest.Server
}

func discardLog() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// newShard boots one rebudgetd over httptest.
func newShard(t *testing.T, cfg server.Config) *shard {
	t.Helper()
	cfg.Logger = discardLog()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return &shard{srv: srv, ts: ts}
}

// newTier boots n shards plus a router over them, with a long probe period
// so tests drive probes synchronously via probeAll.
func newTier(t *testing.T, n int, cfg server.Config) ([]*shard, *Router, *client.Client) {
	t.Helper()
	shards := make([]*shard, n)
	bases := make([]string, n)
	for i := range shards {
		shards[i] = newShard(t, cfg)
		bases[i] = shards[i].ts.URL
	}
	rt, err := New(Config{
		Backends:      bases,
		ProbeInterval: time.Hour, // tests probe explicitly
		Logger:        discardLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { ts.Close(); rt.Close() })
	return shards, rt, client.New(ts.URL)
}

func mustCreate(t *testing.T, c *client.Client, spec api.SessionSpec) api.SessionView {
	t.Helper()
	v, err := c.CreateSession(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func fig3Spec(id string) api.SessionSpec {
	return api.SessionSpec{
		ID: id, Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "rebudget-0.05",
	}
}

// Allocations served through the router must be bit-identical to a direct
// single-daemon run: routing never touches the numerics.
func TestRouterBitIdenticalToDirectDaemon(t *testing.T) {
	ctx := context.Background()
	direct := newShard(t, server.Config{})
	dc := client.New(direct.ts.URL)
	_, _, rc := newTier(t, 3, server.Config{})

	mustCreate(t, dc, fig3Spec("bit"))
	mustCreate(t, rc, fig3Spec("bit"))
	for e := 0; e < 4; e++ {
		want, err := dc.StepEpoch(ctx, "bit")
		if err != nil {
			t.Fatal(err)
		}
		got, err := rc.StepEpoch(ctx, "bit")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Alloc.Allocations, got.Alloc.Allocations) ||
			!reflect.DeepEqual(want.Alloc.Utilities, got.Alloc.Utilities) ||
			want.Alloc.Iterations != got.Alloc.Iterations {
			t.Fatalf("epoch %d: routed allocation diverges from direct daemon", e)
		}
	}
}

// Placement follows the ring: each session lands on its primary shard, the
// same id always routes to the same shard, and generated ids are injected by
// the router before the daemons ever see the spec.
func TestRouterPlacement(t *testing.T) {
	ctx := context.Background()
	shards, rt, rc := newTier(t, 3, server.Config{})

	byBase := map[string]*shard{}
	for _, s := range shards {
		byBase[s.ts.URL] = s
	}
	ids := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	for _, id := range ids {
		mustCreate(t, rc, fig3Spec(id))
	}
	total := 0
	for _, s := range shards {
		total += s.sessions()
	}
	if total != len(ids) {
		t.Fatalf("shards hold %d sessions, want %d", total, len(ids))
	}
	for _, id := range ids {
		owner := byBase[rt.ring.Primary(id)]
		if _, err := client.New(owner.ts.URL).GetSession(ctx, id); err != nil {
			t.Fatalf("session %q not on its ring primary: %v", id, err)
		}
		if _, err := rc.GetSession(ctx, id); err != nil {
			t.Fatalf("session %q not reachable through router: %v", id, err)
		}
	}

	// Router-generated ids: unique, routable, placed.
	v1 := mustCreate(t, rc, api.SessionSpec{Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "equalshare"})
	v2 := mustCreate(t, rc, api.SessionSpec{Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "equalshare"})
	if v1.ID == "" || v1.ID == v2.ID {
		t.Fatalf("router-generated ids broken: %q, %q", v1.ID, v2.ID)
	}
	if _, err := rc.GetSession(ctx, v1.ID); err != nil {
		t.Fatalf("generated id %q not routable: %v", v1.ID, err)
	}
}

// A shard's 429 backpressure — with its Retry-After hint — crosses the
// router untouched.
func TestRouterPropagatesBackpressure(t *testing.T) {
	ctx := context.Background()
	// 1 epoch/s derives a burst of 2.
	_, _, rc := newTier(t, 2, server.Config{SessionRPS: 1})
	mustCreate(t, rc, fig3Spec("bp"))
	for i := 0; i < 2; i++ {
		if _, err := rc.StepEpoch(ctx, "bp"); err != nil {
			t.Fatal(err)
		}
	}
	_, err := rc.StepEpoch(ctx, "bp")
	if !client.IsBusy(err) {
		t.Fatalf("want 429 through router, got %v", err)
	}
	if ae := err.(*client.APIError); ae.RetryAfter <= 0 {
		t.Fatalf("Retry-After lost in the hop: %+v", ae)
	}
}

// Killing a shard fails its sessions over to the next ring position: creates
// keep landing on survivors, the health endpoint degrades, and the failover
// counters move.
func TestRouterFailover(t *testing.T) {
	ctx := context.Background()
	shards, rt, rc := newTier(t, 2, server.Config{})

	// Find ids primaried on each shard so the kill provably strands one.
	idOn := map[string]string{}
	for i := 0; len(idOn) < 2 && i < 64; i++ {
		id := fmt.Sprintf("fo-%d", i)
		if _, have := idOn[rt.ring.Primary(id)]; !have {
			idOn[rt.ring.Primary(id)] = id
		}
	}
	victim, survivor := shards[0], shards[1]
	strandedID := idOn[victim.ts.URL]
	liveID := idOn[survivor.ts.URL]
	mustCreate(t, rc, fig3Spec(strandedID))
	mustCreate(t, rc, fig3Spec(liveID))

	victim.ts.Close()
	rt.probeAll(context.Background())
	if got := rt.Healthy(); got != 1 {
		t.Fatalf("Healthy() = %d after kill, want 1", got)
	}

	// The survivor's session is untouched.
	if _, err := rc.StepEpoch(ctx, liveID); err != nil {
		t.Fatal(err)
	}
	// The stranded id now routes to the survivor — which, with no snapshot
	// store, answers an honest 404 (passed through, not a router error).
	_, err := rc.GetSession(ctx, strandedID)
	ae, ok := err.(*client.APIError)
	if !ok || ae.Status != 404 {
		t.Fatalf("stranded session: want shard 404 via failover, got %v", err)
	}
	if rt.met.failovers.Load() == 0 {
		t.Fatal("failover counter did not move")
	}
	// New sessions still place, wherever their primary was.
	v := mustCreate(t, rc, api.SessionSpec{Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "equalshare"})
	if _, err := rc.StepEpoch(ctx, v.ID); err != nil {
		t.Fatalf("create/step after shard loss: %v", err)
	}

	h, err := rc.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Fatalf("router health = %q with one dead shard, want degraded", h.Status)
	}
}

// /metrics exposes the router counters and per-shard gauges.
func TestRouterMetrics(t *testing.T) {
	ctx := context.Background()
	shards, _, rc := newTier(t, 2, server.Config{})
	mustCreate(t, rc, fig3Spec("met"))
	if _, err := rc.StepEpoch(ctx, "met"); err != nil {
		t.Fatal(err)
	}
	text, err := rc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"rebudget_router_up 1",
		"rebudget_router_shards 2",
		"rebudget_router_shards_healthy 2",
		"rebudget_router_sessions_placed_total 1",
		`rebudget_router_shard_up{shard="` + shards[0].ts.URL + `"} 1`,
		`route="/v1/sessions/{id}/epoch"`,
		"rebudget_router_request_seconds_bucket",
		// A plain backend list is a membership that never changes.
		"rebudget_router_membership_epoch 1\n",
		"rebudget_router_membership_changes_total 0\n",
		"rebudget_router_migrations_total 0\n",
		"rebudget_router_migrations_pending 0\n",
		"rebudget_router_gossip_rounds_total 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// The merged list spans shards; a dead shard shrinks the list instead of
// failing it.
func TestRouterListMergesShards(t *testing.T) {
	ctx := context.Background()
	shards, rt, rc := newTier(t, 2, server.Config{})
	ids := []string{"l-one", "l-two", "l-three", "l-four", "l-five"}
	for _, id := range ids {
		mustCreate(t, rc, fig3Spec(id))
	}
	// Placement hashes the shards' random httptest ports, so a fixed id
	// set can land entirely on one shard; top up until both hold sessions
	// so "partial" below means something.
	for i := 0; shards[0].sessions() == 0 || shards[1].sessions() == 0; i++ {
		if i >= 64 {
			t.Fatal("could not spread sessions across both shards")
		}
		id := fmt.Sprintf("l-extra-%d", i)
		mustCreate(t, rc, fig3Spec(id))
		ids = append(ids, id)
	}
	views, err := rc.ListSessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != len(ids) {
		t.Fatalf("merged list has %d sessions, want %d", len(views), len(ids))
	}
	shards[0].ts.Close()
	rt.probeAll(context.Background())
	views, err = rc.ListSessions(ctx)
	if err != nil {
		t.Fatalf("list with a dead shard should still answer: %v", err)
	}
	if len(views) == 0 || len(views) >= len(ids) {
		t.Fatalf("partial list has %d sessions, want 1..%d", len(views), len(ids)-1)
	}
}

// A list through the router is most recently used first across shards, as
// a single daemon's is: touches alternate between two shards, so a merge in
// shard order cannot match.
func TestRouterListMostRecentFirst(t *testing.T) {
	ctx := context.Background()
	shards, _, rc := newTier(t, 2, server.Config{})
	held := make([][]string, len(shards))
	for i := 0; len(held[0]) < 2 || len(held[1]) < 2; i++ {
		if i >= 64 {
			t.Fatal("could not place two sessions on each shard")
		}
		id := fmt.Sprintf("mru-%02d", i)
		mustCreate(t, rc, fig3Spec(id))
		for j, sh := range shards {
			if views, err := client.New(sh.ts.URL).ListSessions(ctx); err == nil && len(views) > len(held[j]) {
				held[j] = append(held[j], id)
			}
		}
	}
	var touched []string
	for k := 0; k < 2; k++ {
		for j := range shards {
			touched = append(touched, held[j][k])
		}
	}
	for _, id := range touched {
		time.Sleep(time.Millisecond) // distinct LastUsed on a coarse clock
		if _, err := rc.StepEpoch(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	views, err := rc.ListSessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range views {
		if slices.Contains(touched, v.ID) {
			got = append(got, v.ID)
		}
	}
	want := slices.Clone(touched)
	slices.Reverse(want)
	if !slices.Equal(got, want) {
		t.Fatalf("list order %v, want most recently used first %v", got, want)
	}
}

// TestRouterAuthForwarding: keyed shards behind a router work three ways —
// the client's bearer token passes through, the router's BackendAPIKey
// fills the hop for keyless clients, and a client with a wrong key gets the
// shard's 401 verbatim.
func TestRouterAuthForwarding(t *testing.T) {
	ctx := context.Background()
	shards := []*shard{newShard(t, server.Config{APIKey: "shard-key"})}
	rt, err := New(Config{
		Backends:      []string{shards[0].ts.URL},
		ProbeInterval: time.Hour,
		BackendAPIKey: "shard-key",
		Logger:        discardLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { ts.Close(); rt.Close() })

	// Keyless client: the router injects its backend key on the hop.
	bare := client.New(ts.URL)
	mustCreate(t, bare, fig3Spec("via-router"))
	if _, err := bare.StepEpoch(ctx, "via-router"); err != nil {
		t.Fatalf("keyless epoch through keyed router: %v", err)
	}

	// Client token passes through and wins over the router's own key.
	keyed := client.New(ts.URL, client.WithAPIKey("shard-key"))
	if _, err := keyed.StepEpoch(ctx, "via-router"); err != nil {
		t.Fatalf("keyed epoch: %v", err)
	}
	wrong := client.New(ts.URL, client.WithAPIKey("not-it"))
	if _, err := wrong.StepEpoch(ctx, "via-router"); err == nil {
		t.Fatal("wrong client key was not refused")
	} else if ae, ok := err.(*client.APIError); !ok || ae.Status != 401 {
		t.Fatalf("wrong key: want 401 through the router, got %v", err)
	}
}

// TestDerivedDefaults pins every router bound derived rather than taken as
// configuration, each at the value it had as a configurable default.
func TestDerivedDefaults(t *testing.T) {
	rt, err := New(Config{Backends: []string{"http://127.0.0.1:1"}, ProbeInterval: time.Hour, Logger: discardLog()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for _, tc := range []struct {
		name      string
		got, want float64
	}{
		{"probe timeout = 2s", rt.probeClient.Timeout.Seconds(), 2},
		{"max body = 1 MiB", maxBody, 1 << 20},
		{"breaker failures = 3", float64(rt.order[0].br.failures), 3},
		{"retries per request = 2", retriesPerRequest, 2},
		{"retry rate = 16/s", rt.retry.rate, 16},
		{"retry burst = 2×rate", rt.retry.burst, 2 * 16},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: got %g, want %g", tc.name, tc.got, tc.want)
		}
	}
	// Half-open successes = 1: the first good trial closes the breaker.
	b, clk := testBreaker(1, BreakerConfig{OpenTimeout: time.Second})
	b.onFailure()
	clk.advance(2 * time.Second)
	if !b.allow() {
		t.Fatal("no half-open trial granted")
	}
	b.onSuccess()
	if got := b.currentState(); got != breakerClosed {
		t.Errorf("state after one good trial = %v, want closed", got)
	}
}

// A create still naming a retired field — the way-quota L2 switch, or the
// fault stall length that is now a constant — is refused, never silently
// run on another model: 400 straight to a shard and through the router, and
// no session is left behind. The same body without the field creates, so
// the field alone is what is refused.
func TestRetiredL2FieldRefused(t *testing.T) {
	sh := newShard(t, server.Config{})
	rt, err := New(Config{Backends: []string{sh.ts.URL}, ProbeInterval: time.Hour, Logger: discardLog()})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { rts.Close(); rt.Close() })
	post := func(base, id, sim string) int {
		body := `{"id":"` + id + `","workload":{"fig3":true},"mechanism":"equalbudget","mode":"sim","sim":` + sim + `}`
		resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	hops := []struct{ name, base string }{{"shard", sh.ts.URL}, {"router", rts.URL}}
	retired := []struct{ name, sim, twin string }{
		{"sim.way_partition", `{"way_partition":true}`, `{"seed":3}`},
		{"sim.faults.stall_iterations", `{"faults":{"solver_rate":0.1,"stall_iterations":2}}`, `{"faults":{"solver_rate":0.1}}`},
	}
	for _, r := range retired {
		for _, hop := range hops {
			if code := post(hop.base, "retired-"+hop.name, r.sim); code != http.StatusBadRequest {
				t.Errorf("%s: create with %s answered %d, want 400", hop.name, r.name, code)
			}
			if n := sh.sessions(); n != 0 {
				t.Fatalf("%s: refused create with %s left %d sessions", hop.name, r.name, n)
			}
		}
	}
	for i, r := range retired {
		for _, hop := range hops {
			if code := post(hop.base, fmt.Sprintf("plain-%d-%s", i, hop.name), r.twin); code != http.StatusCreated {
				t.Errorf("%s: create without %s answered %d, want 201", hop.name, r.name, code)
			}
		}
	}
}

// sessions reports the shard's resident session count from its /healthz.
func (s *shard) sessions() int {
	rec := httptest.NewRecorder()
	s.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var body api.Healthz
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		return -1
	}
	return body.Sessions
}

// Healthy reports how many shards currently pass probes.
func (rt *Router) Healthy() int {
	n := 0
	for _, b := range rt.activeBackends() {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}
