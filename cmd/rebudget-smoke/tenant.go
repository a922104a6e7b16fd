package main

import (
	"time"

	"rebudget/internal/e2e"
)

// tenantScenario boots one rebudgetd with tenancy armed — "lend" and
// "borrow" splitting a 4-unit cost budget 50/50 on 100ms rebalance epochs —
// and drives a lend-then-reclaim cycle through live traffic:
//
//	phase 1  only borrow offers load, well past its deserved half: lend's
//	         parked slice must be lent out and borrow run over quota;
//	phase 2  both tenants saturate: lend's demand has returned, so bounded
//	         reclaim must cut borrow back and restore lend to ~its deserved
//	         share within a few epochs.
//
// The loadgen itself fails the run if a session is placed under the wrong
// tenant, and each phase's report must carry the per-tenant breakdown.
func tenantScenario(h *e2e.Harness) {
	d := h.Boot(e2e.Tier{Shards: 1, ShardFlags: []string{
		"-idle-ttl", "0", "-tenants", "lend,borrow", "-tenant-epoch", "100ms", "-cost-capacity", "4"}}).Shards[0]
	h.Logf("daemon up at %s, tenancy armed", d.Addr)

	// The tree starts parked: each tenant holds its deserved half of the
	// 4-unit budget before any traffic.
	h.Metrics(d.Base(),
		e2e.AtLeast("rebudgetd_tenant_deserved_cost", 1.9, "tenant", "lend"),
		e2e.AtLeast("rebudgetd_tenant_deserved_cost", 1.9, "tenant", "borrow"),
		e2e.AtLeast("rebudgetd_tenant_granted_cost", 1.9, "tenant", "lend"))
	h.Logf("parked 50/50 split in place")

	// phase runs 24 concurrent 32-core market sessions — far more than one
	// tenant's 2-unit slice — under the given mix while the gauges are
	// polled (every 0.3s, 12s at most) for the expected movement.
	phase := func(label, tenants string, duration time.Duration, want ...e2e.Check) {
		cfg := loadConfig(h, d.Base(), label)
		cfg.Sessions, cfg.CheapFrac, cfg.CheapCores, cfg.CheapMech = 24, 1, 32, "equalbudget"
		cfg.Concurrency, cfg.Duration, cfg.Prime, cfg.Tenants = 24, duration, 0, tenants
		wait, stop := startLoad(h, cfg)
		defer stop()
		h.Await(d.Base(), 12*time.Second, 300*time.Millisecond, want...)
		if rep := wait(); len(rep.Tenants) == 0 {
			h.Fatalf("%s report is missing its per-tenant section", label)
		}
	}

	h.Logf("phase 1 — borrow saturates, lend idle")
	phase("tenant-lend-phase", "borrow:steady", 10*time.Second,
		e2e.AtLeast("rebudgetd_tenant_lent_cost", 0.5, "tenant", "lend"),
		e2e.AtLeast("rebudgetd_tenant_borrowed_cost", 0.5, "tenant", "borrow"),
		e2e.AtLeast("rebudgetd_tenant_sessions", 1, "tenant", "borrow"))
	h.Logf("lending observed (lend's slice moved to borrow)")

	h.Logf("phase 2 — lend's demand returns, reclaim")
	phase("tenant-reclaim-phase", "lend:steady,borrow:steady", 12*time.Second,
		e2e.AtLeast("rebudgetd_tenant_demand_cost", 0.8, "tenant", "lend"),
		e2e.AtLeast("rebudgetd_tenant_granted_cost", 1.75, "tenant", "lend"),
		e2e.AtLeast("rebudgetd_tenant_reclaimed_cost_total", 0.1, "tenant", "borrow"),
		e2e.AtLeast("rebudgetd_tenant_rebalance_epochs_total", 10))
	h.Logf("reclaim restored lend to its deserved share under live load")

	h.Drain(d) // SIGTERM must drain cleanly with tenancy armed
}
