package main

import (
	"fmt"
	"path/filepath"

	"rebudget/internal/e2e"
	"rebudget/internal/server/client"
)

// routerScenario: 8 sessions placed through a router over two shards that
// share a snapshot directory; SIGTERM one shard and its sessions must fail
// over to the survivor and resume from their snapshots with no lost epochs,
// the router's failover counters must move, and the rest must drain cleanly.
func routerScenario(h *e2e.Harness) {
	f := h.Boot(e2e.Tier{
		Shards:     2,
		ShardFlags: []string{"-snapshot-dir", filepath.Join(h.Dir(), "snapshots")},
		Routers:    [][]string{{"-probe-interval", "200ms"}},
	})
	victim, survivor, rt := f.Shards[0], f.Shards[1], f.Routers[0]
	h.Logf("shards up at %s and %s, router at %s", victim.Addr, survivor.Addr, rt.Addr)

	c := client.New(rt.Base())
	placeSessions(h, c, "rs", 8, 2)
	h.Logf("8 sessions placed through the router")

	// The kill only proves failover if the victim actually holds sessions;
	// the ring splits 8 ids across 2 shards essentially always, but
	// port-derived hashing makes placement run-dependent, so top up until
	// the victim owns some.
	for extra := 1; h.Holds(victim.Base(), e2e.AtLeast("rebudgetd_sessions_live", 1)) != nil; extra++ {
		if extra > 24 {
			h.Fatalf("could not land a session on the victim shard")
		}
		placeSessions(h, c, fmt.Sprintf("rs-extra%d-", extra), 1, 2)
	}

	// SIGTERM drains the victim: /healthz flips 503 (the router's probe marks
	// it down) and every resident session is snapshotted on exit.
	h.Logf("draining shard %s", victim.Addr)
	h.Drain(victim)

	// Every session must still be reachable through the router — the
	// stranded ones rehydrate on the survivor, progress intact.
	resumeSessions(h, c, "rs", 8, 2)
	h.Logf("all 8 sessions survived the shard kill")

	// The router's counters must reflect the failover, and the survivor must
	// report actual snapshot restores (migration, not silent recreation).
	h.Metrics(rt.Base(),
		e2e.AtLeast("rebudget_router_up", 1),
		e2e.AtLeast("rebudget_router_shards", 2),
		e2e.AtLeast("rebudget_router_sessions_placed_total", 8),
		e2e.AtLeast("rebudget_router_failovers_total", 1),
		e2e.AtLeast("rebudget_router_rerouted_epochs_total", 1))
	h.Metrics(survivor.Base(), e2e.AtLeast("rebudgetd_snapshots_total", 1, "op", "restore"))
	h.Drain(rt, survivor)
}
