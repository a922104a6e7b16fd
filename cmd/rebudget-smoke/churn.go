package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/e2e"
	"rebudget/internal/server/client"
)

const churnToken = "churn-smoke-token"

// admin makes one authenticated call against a router's admin API and
// returns the membership view every admin route answers with.
func admin(h *e2e.Harness, method, target, body string) (m api.Membership, err error) {
	req, err := http.NewRequestWithContext(h.Ctx, method, target, strings.NewReader(body))
	if err != nil {
		return m, err
	}
	req.Header.Set("Authorization", "Bearer "+churnToken)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return m, fmt.Errorf("%s %s: status %d", method, target, resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// churnScenario boots a snapstore, four shards snapshotting to it (two in
// the ring, two standing by) and two router replicas, the second learning
// everything from the first by gossip. Under live loadgen traffic it grows
// the ring 2 -> 4 and shrinks it 4 -> 2 through the admin API, waiting out
// each migration, and asserts zero lost sessions, zero loadgen errors, the
// membership/migration/gossip counters on the routers and warm restores
// through the snapstore.
func churnScenario(h *e2e.Harness) {
	f := h.Boot(e2e.Tier{
		Snapstore: true,
		Shards:    2,
		Standby:   2,
		Routers: [][]string{
			{"-probe-interval", "200ms", "-admin-token", churnToken, "-migration-interval", "50ms"},
			{"-probe-interval", "200ms", "-admin-token", churnToken, "-gossip-interval", "300ms"},
		},
	})
	rt1, rt2 := f.Routers[0], f.Routers[1]
	h.Logf("snapstore at %s, shards at %s %s (+%s %s standing by), routers at %s (admin) and %s (gossiping to it)",
		f.Snapstore.Addr, f.Shards[0].Addr, f.Shards[1].Addr, f.Shards[2].Addr, f.Shards[3].Addr, rt1.Addr, rt2.Addr)

	// change makes one membership change on router 1; quiet then waits (40s
	// at most) until no migration is queued or pinned and no retired shard
	// is still draining.
	change := func(method, query, body string) {
		_, err := admin(h, method, rt1.Base()+"/admin/shards"+query, body)
		h.Must(err)
	}
	quiet := func() {
		h.Eventually(40*time.Second, 100*time.Millisecond, func() error {
			m, err := admin(h, http.MethodGet, rt1.Base()+"/admin/membership", "")
			if err == nil && (m.Migrating != 0 || len(m.Draining) != 0) {
				err = fmt.Errorf("migrations never drained: %+v", m)
			}
			return err
		})
	}

	c := client.New(rt1.Base())
	placeSessions(h, c, "churn", 12, 2)
	h.Logf("12 tracked sessions placed")

	// Background load through the whole churn.
	cfg := loadConfig(h, rt1.Base(), "churn")
	cfg.Concurrency, cfg.Sessions, cfg.Duration = 4, 8, env(h, "CHURN_DURATION", 16*time.Second, time.ParseDuration)
	wait, stop := startLoad(h, cfg)
	defer stop()

	time.Sleep(time.Second)
	h.Logf("growing 2 -> 4 shards")
	change(http.MethodPost, "", `{"shard":"`+f.Shards[2].Base()+`"}`)
	change(http.MethodPost, "", `{"shard":"`+f.Shards[3].Base()+`"}`)
	quiet()
	h.Logf("grown to 4 shards, migrations drained")

	time.Sleep(time.Second)
	h.Logf("shrinking 4 -> 2 shards")
	change(http.MethodDelete, "?shard="+url.QueryEscape(f.Shards[3].Base()), "")
	change(http.MethodDelete, "?shard="+url.QueryEscape(f.Shards[2].Base()), "")
	quiet()
	h.Logf("shrunk back to 2 shards, retirees drained")

	// Zero lost sessions: every tracked session resumes with its progress.
	resumeSessions(h, c, "churn", 12, 2)
	h.Logf("all 12 tracked sessions survived with progress intact")

	// Zero loadgen errors, in every class, across the whole churn window.
	rep := wait()
	for name, cr := range rep.Classes {
		if cr.Errors != 0 {
			printReport(rep)
			h.Fatalf("loadgen saw %d %s-class errors during the churn", cr.Errors, name)
		}
	}
	h.Logf("loadgen ran error-free through both membership changes (%d epochs)", rep.OK)

	// Four membership changes (two adds, two removes) on top of epoch 1.
	h.Metrics(rt1.Base(),
		e2e.AtLeast("rebudget_router_membership_epoch", 5),
		e2e.AtLeast("rebudget_router_membership_changes_total", 4),
		e2e.AtLeast("rebudget_router_migrations_total", 1))
	// Router 2 never took an admin call: everything it knows arrived by gossip.
	h.Metrics(rt2.Base(),
		e2e.AtLeast("rebudget_router_membership_epoch", 5),
		e2e.AtLeast("rebudget_router_gossip_rounds_total", 1))
	// Migration used snapshots as the vehicle: the snapstore served restores.
	h.Metrics(f.Snapstore.Base(),
		e2e.AtLeast("snapstore_puts_total", 1),
		e2e.AtLeast("snapstore_gets_total", 1),
		e2e.AtLeast("snapstore_corrupt_total", 0))
	// And at least one surviving shard performed a checksum-verified restore.
	restored := e2e.AtLeast("rebudgetd_snapshots_total", 1, "op", "restore")
	if h.Holds(f.Shards[0].Base(), restored) != nil {
		h.Metrics(f.Shards[1].Base(), restored)
	}
}
