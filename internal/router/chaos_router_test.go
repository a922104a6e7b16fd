package router

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rebudget/internal/chaos"
	"rebudget/internal/server"
	"rebudget/internal/server/client"
)

// newChaosTier boots n shards plus a router whose proxy data path runs
// through a chaos transport; probes stay on a clean path, so injected
// faults are gray failures by construction.
func newChaosTier(t *testing.T, n int, rtCfg Config) ([]*shard, *Router, *client.Client) {
	t.Helper()
	shards := make([]*shard, n)
	bases := make([]string, n)
	for i := range shards {
		shards[i] = newShard(t, server.Config{})
		bases[i] = shards[i].ts.URL
	}
	rtCfg.Backends = bases
	rtCfg.ProbeInterval = time.Hour // tests probe explicitly
	rtCfg.Logger = discardLog()
	rt, err := New(rtCfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { ts.Close(); rt.Close() })
	return shards, rt, client.New(ts.URL)
}

// idPrimariedOn finds a session id whose ring primary is base.
func idPrimariedOn(t *testing.T, rt *Router, base string) string {
	t.Helper()
	for i := 0; i < 256; i++ {
		id := fmt.Sprintf("cx-%d", i)
		if rt.ring.Primary(id) == base {
			return id
		}
	}
	t.Fatalf("no id primaried on %s", base)
	return ""
}

// A partition the prober can't see (gray failure) opens the victim's
// breaker through passive detection, the open breaker short-circuits the
// first pass, and a heal plus one good probe walks it back to closed via
// a half-open trial.
func TestRouterBreakerGrayFailure(t *testing.T) {
	ctx := context.Background()
	tr := chaos.NewTransport(nil, nil)
	shards, rt, rc := newChaosTier(t, 2, Config{
		Transport: tr,
		Breaker:   BreakerConfig{OpenTimeout: time.Hour},
	})
	victimBase := shards[0].ts.URL
	stranded := idPrimariedOn(t, rt, victimBase)
	mustCreate(t, rc, fig3Spec(stranded))

	tr.Partition(victimBase)
	// breakerFailures failed-over requests: passive detection feeds the
	// breaker. A probe sweep between them flips the victim back to
	// probe-green — probes bypass the partition, which is the gray
	// failure — so each later request actually re-attempts the data path.
	for i := 0; i < breakerFailures; i++ {
		if i > 0 {
			rt.probeAll(ctx)
		}
		_, err := rc.GetSession(ctx, stranded)
		ae, ok := err.(*client.APIError)
		if !ok || ae.Status != 404 {
			t.Fatalf("partitioned request %d: want failover 404 from survivor, got %v", i, err)
		}
	}
	victim := rt.backends[victimBase]
	if got := victim.br.currentState(); got != breakerOpen {
		t.Fatalf("victim breaker = %v after %d transport failures, want open", got, breakerFailures)
	}

	// Pretend the prober's view is stale-green (exactly what a gray
	// failure looks like): the open breaker must reject on the first
	// pass, so the request is served without re-touching the victim.
	victim.healthy.Store(true)
	if _, err := rc.GetSession(ctx, stranded); err == nil {
		t.Fatal("stranded session resolved with its shard partitioned")
	}
	if rt.met.breakerRejects.Load() == 0 {
		t.Fatal("open breaker did not short-circuit the first pass")
	}
	text, err := rc.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`rebudget_router_breaker_state{shard="` + victimBase + `",state="open"} 1`,
		`rebudget_router_breaker_transitions_total{shard="` + victimBase + `",to="open"}`,
		"rebudget_router_breaker_rejections_total",
		"rebudget_router_retries_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// Heal. A good probe grants a half-open trial; the next request is
	// that trial, succeeds on the victim (which still holds the
	// session), and closes the breaker.
	tr.Heal(victimBase)
	rt.probeAll(ctx)
	if got := victim.br.currentState(); got != breakerHalfOpen {
		t.Fatalf("breaker = %v after heal+probe, want half_open", got)
	}
	if _, err := rc.GetSession(ctx, stranded); err != nil {
		t.Fatalf("healed shard's session unreachable: %v", err)
	}
	if got := victim.br.currentState(); got != breakerClosed {
		t.Fatalf("breaker = %v after successful trial, want closed", got)
	}
}

// With every shard partitioned, the per-request retry budget bounds how
// many attempts one request may burn: first attempt free, retriesPerRequest
// retries, then a 503 — it never walks the whole ring.
func TestRouterRetryBudgetBoundsAttempts(t *testing.T) {
	ctx := context.Background()
	in := chaos.New(chaos.Config{LatencyRate: 1e-12}) // enabled, effectively silent
	tr := chaos.NewTransport(in, nil)
	var attempts atomic.Int64
	counted := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		attempts.Add(1)
		return tr.RoundTrip(r)
	})
	shards, _, rc := newChaosTier(t, retriesPerRequest+2, Config{Transport: counted})
	for _, s := range shards {
		tr.Partition(s.ts.URL)
	}
	attempts.Store(0)
	_, err := rc.GetSession(ctx, "anything")
	ae, ok := err.(*client.APIError)
	if !ok || ae.Status != 503 {
		t.Fatalf("want 503 with all shards partitioned, got %v", err)
	}
	if !strings.Contains(ae.Message, "retry budget") {
		t.Fatalf("503 body should say the retry budget ran out: %q", ae.Message)
	}
	if got := attempts.Load(); got != 1+retriesPerRequest {
		t.Fatalf("request burned %d attempts, want %d (1 + retriesPerRequest)", got, 1+retriesPerRequest)
	}
}

// The router-wide token bucket caps the tier's total retry rate: once
// drained, further requests get their first attempt but no failover.
func TestRouterRetryTokenBucket(t *testing.T) {
	ctx := context.Background()
	tr := chaos.NewTransport(nil, nil)
	shards, rt, rc := newChaosTier(t, 2, Config{Transport: tr})
	// Half a token per second banks one; a stopped clock never refills it.
	stopped := time.Now()
	rt.retry = newRetryBudget(0.5, func() time.Time { return stopped })
	for _, s := range shards {
		tr.Partition(s.ts.URL)
	}
	for i := 0; i < 2; i++ {
		if _, err := rc.GetSession(ctx, "x"); err == nil {
			t.Fatal("partitioned tier served a request")
		}
	}
	if got := rt.met.retries.Load(); got != 1 {
		t.Fatalf("retries spent = %d, want exactly the 1 banked token", got)
	}
	if rt.met.retryExhausted.Load() == 0 {
		t.Fatal("drained bucket never reported exhaustion")
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
