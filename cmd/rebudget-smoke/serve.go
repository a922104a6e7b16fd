package main

import (
	"os"
	"path/filepath"

	"rebudget/internal/e2e"
	"rebudget/internal/server/client"
)

// serveScenario: a session driven through 3 epochs on a lone rebudgetd must
// move the serving counters and be snapshotted by the SIGTERM drain; a
// second daemon on the same directory must rehydrate it, progress intact,
// and serve the next epoch from that state — not a cold recreation.
func serveScenario(h *e2e.Harness) {
	snapDir := filepath.Join(h.Dir(), "snapshots")
	tier := e2e.Tier{Shards: 1, ShardFlags: []string{"-idle-ttl", "1m", "-snapshot-dir", snapDir}}
	d := h.Boot(tier).Shards[0]
	h.Logf("daemon up at %s (pid %d)", d.Addr, d.Pid())
	placeSessions(h, client.New(d.Base()), "smoke", 1, 3)
	h.Metrics(d.Base(),
		e2e.AtLeast("rebudgetd_up", 1),
		e2e.AtLeast("rebudgetd_sessions_live", 1),
		e2e.AtLeast("rebudgetd_sessions_created_total", 1),
		e2e.AtLeast("rebudgetd_epochs_served_total", 3),
		e2e.AtLeast("rebudgetd_equilibrium_runs_total", 3),
		e2e.AtLeast("rebudgetd_request_seconds_count", 3))
	h.Drain(d)
	if _, err := os.Stat(filepath.Join(snapDir, "smoke1.json")); err != nil {
		h.Fatalf("drain did not write the session snapshot: %v", err)
	}
	h.Logf("daemon drained cleanly, session snapshotted")

	d = h.Boot(tier).Shards[0]
	h.Logf("daemon restarted at %s (pid %d)", d.Addr, d.Pid())
	resumeSessions(h, client.New(d.Base()), "smoke", 1, 3)
	h.Metrics(d.Base(),
		e2e.AtLeast("rebudgetd_snapshots_total", 1, "op", "restore"),
		e2e.AtLeast("rebudgetd_epochs_served_total", 1))
	h.Drain(d)
}
