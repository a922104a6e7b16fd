package client_test

import (
	"context"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/server"
	"rebudget/internal/server/client"
)

// The serving layer end to end, in process. An embedded rebudgetd hosts an
// analytic-market session that re-solves a warm-started equilibrium each
// epoch, while the typed client drives epochs, injects telemetry (a phase
// change) and scrapes /metrics. This is §4.3's per-epoch reallocation loop
// hosted as a service. Execution-driven sim sessions, stepped the same way,
// are driven end to end by `rebudget-smoke serve`.
func ExampleClient() {
	// Silence request logs; the example narrates itself.
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := server.New(server.Config{Logger: quiet})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL, client.WithHTTPClient(&http.Client{Timeout: time.Minute}))
	ctx := context.Background()

	// --- Analytic market, warm-started ReBudget epochs ---
	mkt, err := c.CreateSession(ctx, api.SessionSpec{
		ID:        "edge-cluster",
		Workload:  api.WorkloadSpec{Fig3: true},
		Mechanism: "rebudget-0.05",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("market session %q: %d players, mechanism %s\n", mkt.ID, mkt.Cores, mkt.Mechanism)
	for epoch := 1; epoch <= 3; epoch++ {
		v, err := c.StepEpoch(ctx, mkt.ID)
		if err != nil {
			log.Fatal(err)
		}
		a := v.Alloc
		fmt.Printf("  epoch %d: efficiency %.3f  iterations %3d", epoch, a.Efficiency, a.Iterations)
		if a.EnvyFreeness != nil {
			fmt.Printf("  EF %.3f", *a.EnvyFreeness)
		}
		fmt.Println()
	}
	// A phase change: player 0's monitors report doubled demand; the next
	// warm-started epoch re-converges from the previous bids.
	if _, err := c.Telemetry(ctx, mkt.ID, api.TelemetrySpec{
		Players: []api.PlayerTelemetry{{Player: 0, Demand: 2}},
	}); err != nil {
		log.Fatal(err)
	}
	v, err := c.StepEpoch(ctx, mkt.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  after 2x demand on %s: efficiency %.3f  iterations %3d\n\n",
		v.Alloc.Players[0], v.Alloc.Efficiency, v.Alloc.Iterations)

	// --- Observability ---
	h, err := c.Healthz(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healthz: %s, %d sessions\n", h.Status, h.Sessions)
	text, err := c.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("selected /metrics:")
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "rebudgetd_sessions_live") ||
			strings.HasPrefix(line, "rebudgetd_epochs_served_total") ||
			strings.HasPrefix(line, "rebudgetd_equilibrium_runs_total") ||
			strings.HasPrefix(line, "rebudgetd_equilibrium_rounds_total") ||
			strings.HasPrefix(line, "rebudgetd_sessions_by_state") {
			fmt.Printf("  %s\n", line)
		}
	}
	// Output:
	// market session "edge-cluster": 8 players, mechanism rebudget-0.05
	//   epoch 1: efficiency 6.138  iterations   3  EF 1.000
	//   epoch 2: efficiency 6.138  iterations   1  EF 1.000
	//   epoch 3: efficiency 6.138  iterations   1  EF 1.000
	//   after 2x demand on apsi#0: efficiency 6.854  iterations   1
	//
	// healthz: ok, 1 sessions
	// selected /metrics:
	//   rebudgetd_sessions_live 1
	//   rebudgetd_epochs_served_total 4
	//   rebudgetd_equilibrium_runs_total 4
	//   rebudgetd_equilibrium_rounds_total 6
	//   rebudgetd_sessions_by_state{state="healthy"} 1
	//   rebudgetd_sessions_by_state{state="degraded"} 0
	//   rebudgetd_sessions_by_state{state="recovering"} 0
}
