package router

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rebudget/internal/server"
	"rebudget/internal/server/client"
)

// Cross-shard migration under churn: sessions step continuously through the
// router while one backend drains and dies mid-epoch. Its sessions must
// resume on the surviving shard from their snapshots — epochs monotone, no
// lost progress — with only transient errors during the handoff. Run with
// -race (make race-router): the interesting failures here are concurrent.
func TestMigrationUnderChurn(t *testing.T) {
	st, err := server.NewFileSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{Snapshots: st}
	shardA := newShard(t, cfg)
	shardB := newShard(t, cfg)
	rt, err := New(Config{
		Backends:      []string{shardA.ts.URL, shardB.ts.URL},
		ProbeInterval: 20 * time.Millisecond,
		Logger:        discardLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rts := newRouterServer(t, rt)
	rc := client.New(rts)
	ctx := context.Background()

	// Placement hashes the shards' random httptest ports, so a fixed id
	// set can degenerate onto one shard; pick ids so both shards hold
	// sessions and the kill below actually forces migrations.
	const nSessions = 6
	ids := make([]string, 0, nSessions)
	onA := 0
	for i := 0; len(ids) < nSessions; i++ {
		if i >= 1000 {
			t.Fatal("could not spread sessions across both shards")
		}
		id := fmt.Sprintf("churn-%d", i)
		a := rt.ring.Primary(id) == shardA.ts.URL
		if len(ids) == nSessions-1 && (onA == 0 || onA == len(ids)) {
			if (onA == 0) != a { // last slot goes to the still-empty shard
				continue
			}
		}
		if a {
			onA++
		}
		ids = append(ids, id)
		mustCreate(t, rc, fig3Spec(id))
	}

	// Steppers: step every session continuously, tolerating the transient
	// errors of the handoff window (404 before the snapshot lands, 503
	// while no route is up) but never an epoch regression. Each stepper
	// runs until it has landed several epochs *after* the kill — the only
	// way to do that for a shard-A session is to rehydrate on shard B.
	killed := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, nSessions)
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			deadline := time.Now().Add(30 * time.Second)
			last, postKill := int64(0), 0
			for postKill < 3 {
				if time.Now().After(deadline) {
					errs[i] = fmt.Errorf("session %s stuck at epoch %d after the kill", id, last)
					return
				}
				v, err := rc.StepEpoch(ctx, id)
				if err != nil {
					time.Sleep(25 * time.Millisecond)
					continue
				}
				if v.Epochs < last {
					errs[i] = fmt.Errorf("session %s epochs regressed %d -> %d", id, last, v.Epochs)
					return
				}
				last = v.Epochs
				select {
				case <-killed:
					postKill++
				default:
				}
			}
		}(i, id)
	}

	// Mid-churn: drain shard A (healthz flips 503, prober sees it), then
	// kill it — Close() writes every resident session's snapshot to the
	// shared store, which is what shard B rehydrates from.
	time.Sleep(150 * time.Millisecond)
	shardA.srv.StartDrain()
	time.Sleep(100 * time.Millisecond) // a probe period: router notices the drain
	shardA.ts.Close()
	shardA.srv.Close()
	close(killed)

	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Every session — including the migrated ones — finished on shard B.
	if got := shardB.sessions(); got != nSessions {
		t.Fatalf("survivor holds %d sessions, want all %d", got, nSessions)
	}
	if rt.met.failovers.Load() == 0 {
		t.Fatal("failover counter did not move during the churn")
	}
	// The survivor's metrics show actual snapshot restores.
	metrics, err := client.New(shardB.ts.URL).Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, `rebudgetd_snapshots_total{op="restore"}`) {
		t.Fatal("survivor shard reports no snapshot restores — sessions were recreated, not migrated")
	}
}

// newRouterServer mounts a router on httptest and returns its base URL.
func newRouterServer(t *testing.T, rt *Router) string {
	t.Helper()
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { ts.Close(); rt.Close() })
	return ts.URL
}
