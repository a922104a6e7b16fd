// Command rebudget-smoke runs one end-to-end scenario against the real
// serving binaries — rebudgetd, rebudget-router and rebudget-snapstore,
// built, started on loopback ports, driven through the typed client and the
// in-process load generator, SIGTERM-drained — and exits non-zero on the
// first failed assertion, dumping every daemon's log. `make ci` gates on
// serve, router, chaos, load, tenant, churn and density; density-ab is the
// on-demand 100k-resident measurement. internal/e2e is the process booter
// and /metrics checker the scenarios share. Run it from the module root.
//
// Usage:
//
//	rebudget-smoke <serve|router|chaos|load|tenant|churn|density|density-ab>
//
// Environment: LOAD_DURATION (load, default 15s), CHURN_DURATION (churn,
// 16s), CHAOS_SEED (chaos, 7), DENSITY_RESIDENT (density 10000, density-ab
// 100000), DENSITY_CREATE_BOUND_S (density, 120), DENSITY_RATE (density-ab,
// 500).
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"rebudget/internal/api"
	"rebudget/internal/e2e"
	"rebudget/internal/server/client"
)

var scenarios = []struct {
	name, about string
	run         func(*e2e.Harness)
}{
	{"serve", "one daemon: epochs, /metrics, drain to a snapshot, rehydrate on restart", serveScenario},
	{"router", "two shards behind a router: kill one, every session fails over warm", routerScenario},
	{"chaos", "seeded in-process chaos soak: zero lost sessions, baseline bit-identity", chaosScenario},
	{"load", "mixed-cost load through a two-shard tier: throughput, bounded 429s, admission gauges", loadScenario},
	{"tenant", "tenant economy: lend-then-bounded-reclaim cycle under live load", tenantScenario},
	{"churn", "elastic membership: grow 2->4->2 under load behind two gossiping routers", churnScenario},
	{"density", "10k residents on one shard: create flood, bounded scrape, hibernation, wake-on-touch", densityScenario},
	{"density-ab", "100k residents on four shards; report lands in .bench/density.json", densityABScenario},
}

func main() {
	for _, sc := range scenarios {
		if len(os.Args) == 2 && sc.name == os.Args[1] {
			// An interrupt cancels the scenario's calls, so it fails and
			// cleans up instead of orphaning its daemons.
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			defer stop()
			if err := e2e.Run(ctx, sc.name+"-smoke", sc.run); err != nil {
				fmt.Fprintf(os.Stderr, "%s-smoke: FAIL: %v\n", sc.name, err)
				os.Exit(1)
			}
			fmt.Printf("%s-smoke: PASS\n", sc.name)
			return
		}
	}
	fmt.Fprintln(os.Stderr, "usage: rebudget-smoke <scenario>")
	for _, sc := range scenarios {
		fmt.Fprintf(os.Stderr, "  %-11s %s\n", sc.name, sc.about)
	}
	os.Exit(2)
}

// placeSessions creates n of the paper's Fig. 3 market sessions, prefix1 …
// prefixN, steps each through epochs and leaves them resident.
func placeSessions(h *e2e.Harness, c *client.Client, prefix string, n, epochs int) {
	for i := 1; i <= n; i++ {
		v, err := c.CreateSession(h.Ctx, api.SessionSpec{
			ID:        prefix + strconv.Itoa(i),
			Workload:  api.WorkloadSpec{Fig3: true},
			Mechanism: "rebudget-0.05",
		})
		h.Must(err)
		stepSession(h, c, v, epochs)
	}
}

// resumeSessions requires each of the n sessions to exist — possibly
// rehydrated from a snapshot on this first touch — with at least served
// epochs of progress intact, then steps it through one more.
func resumeSessions(h *e2e.Harness, c *client.Client, prefix string, n int, served int64) {
	for i := 1; i <= n; i++ {
		v, err := c.GetSession(h.Ctx, prefix+strconv.Itoa(i))
		if err != nil {
			h.Fatalf("session lost: %v", err)
		}
		if v.Epochs < served {
			h.Fatalf("resumed session %q has %d epochs, want >= %d (snapshot lost progress?)", v.ID, v.Epochs, served)
		}
		stepSession(h, c, v, 1)
	}
}

func stepSession(h *e2e.Harness, c *client.Client, v api.SessionView, epochs int) {
	want := v.Epochs + int64(epochs)
	for e := 0; e < epochs; e++ {
		var err error
		if v, err = c.StepEpoch(h.Ctx, v.ID); err != nil {
			h.Fatalf("session %q epoch %d: %v", v.ID, e+1, err)
		}
	}
	if v.Epochs < want || v.Alloc == nil || len(v.Alloc.Allocations) == 0 {
		h.Fatalf("session %q after %d epochs: reports %d (want >= %d), allocation %v", v.ID, epochs, v.Epochs, want, v.Alloc)
	}
}

// env reads one of the overrides the Makefile documents.
func env[T any](h *e2e.Harness, name string, def T, parse func(string) (T, error)) T {
	if s := os.Getenv(name); s != "" {
		v, err := parse(s)
		if err != nil {
			h.Fatalf("%s: %v", name, err)
		}
		return v
	}
	return def
}
