package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"rebudget/internal/e2e"
	"rebudget/internal/loadgen"
)

// loadConfig is the loadgen's defaults pointed at target, with progress
// lines going to the scenario's output.
func loadConfig(h *e2e.Harness, target, label string) loadgen.Config {
	cfg := loadgen.Defaults()
	cfg.Target, cfg.Label, cfg.Logf = target, label, h.Logf
	return cfg
}

// startLoad runs the loadgen in-process in the background. wait blocks for
// its report and fails the scenario if the run itself failed; stop cancels
// a run still going and must be deferred, so a scenario that fails first
// does not leave load running behind it.
func startLoad(h *e2e.Harness, cfg loadgen.Config) (wait func() loadgen.Report, stop func()) {
	ctx, cancel := context.WithCancel(h.Ctx)
	var rep loadgen.Report
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		rep, err = loadgen.Run(ctx, cfg)
	}()
	wait = func() loadgen.Report {
		if <-done; err != nil {
			h.Fatalf("loadgen %s: %v", cfg.Label, err)
		}
		return rep
	}
	return wait, func() { cancel(); <-done }
}

// runLoad is startLoad in the foreground.
func runLoad(h *e2e.Harness, cfg loadgen.Config) loadgen.Report {
	wait, stop := startLoad(h, cfg)
	defer stop()
	return wait()
}

func printReport(rep loadgen.Report) {
	enc, _ := json.MarshalIndent(rep, "", "  ") // plain structs of numbers and strings
	fmt.Printf("%s\n", enc)
}

// loadScenario: a closed-loop 80/20 cheap/expensive mix at enough
// concurrency to queue, through a router over two shards for LOAD_DURATION,
// must show nonzero successful throughput, zero errors, a bounded 429 rate,
// and the weighted admission gauges on both shards.
func loadScenario(h *e2e.Harness) {
	duration := env(h, "LOAD_DURATION", 15*time.Second, time.ParseDuration)
	f := h.Boot(e2e.Tier{
		Shards:     2,
		ShardFlags: []string{"-idle-ttl", "0"},
		Routers:    [][]string{{"-probe-interval", "200ms"}},
	})
	h.Logf("tier up (shards %s, %s; router %s); driving it for %s",
		f.Shards[0].Addr, f.Shards[1].Addr, f.Routers[0].Addr, duration)

	cfg := loadConfig(h, f.Routers[0].Base(), "load-smoke")
	cfg.Sessions, cfg.CheapFrac, cfg.Concurrency, cfg.Duration = 20, 0.8, 12, duration
	rep := runLoad(h, cfg)
	printReport(rep)
	// 429s are expected at saturation; an unbounded rate means admission is
	// rejecting nearly everything.
	if rep.OK == 0 || rep.Errors != 0 || rep.Rate429 >= 0.75 {
		h.Fatalf("want ok > 0, errors == 0, rate_429 < 0.75; got ok=%d errors=%d rate_429=%g", rep.OK, rep.Errors, rep.Rate429)
	}
	h.Logf("%d epochs served, 429 rate %g", rep.OK, rep.Rate429)

	for _, s := range f.Shards {
		h.Metrics(s.Base(),
			e2e.AtLeast("rebudgetd_dispatch_capacity_cost", 1),
			e2e.AtLeast("rebudgetd_dispatch_in_flight_cost", 0),
			e2e.AtLeast("rebudgetd_dispatch_queued_cost", 0))
	}
}
