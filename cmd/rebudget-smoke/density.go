package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"rebudget/internal/e2e"
	"rebudget/internal/loadgen"
	"rebudget/internal/server/client"
)

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// densityScenario: one shard tuned for density (2s hibernation deadline, API
// key armed, capacity exactly DENSITY_RESIDENT), flooded with
// DENSITY_RESIDENT sessions through the loadgen's density mode, must show a
// bounded, failure-free create flood, zero tick errors, every session still
// resident, a sub-250ms full-population /metrics scrape carrying no
// per-session-id series, the hibernation sweep parking >= 95% of the idle
// population, and wake-on-touch through auth.
func densityScenario(h *e2e.Harness) {
	const key = "density-smoke-key"
	resident := env(h, "DENSITY_RESIDENT", 10000, strconv.Atoi)
	createBound := env(h, "DENSITY_CREATE_BOUND_S", 120, parseFloat)
	d := h.Boot(e2e.Tier{Shards: 1, ShardFlags: []string{
		"-max-sessions", strconv.Itoa(resident),
		"-idle-ttl", "0", "-park-after", "2s", "-api-key", key}}).Shards[0]
	h.Logf("daemon up at %s, creating %d residents", d.Addr, resident)

	cfg := loadConfig(h, d.Base(), "density-smoke")
	cfg.APIKey, cfg.Resident, cfg.WorkingSet, cfg.Rate = key, resident, 256, 200
	cfg.Duration, cfg.KeepSessions = 5*time.Second, true
	rep := runLoad(h, cfg)
	tick := rep.Classes["resident"]
	h.Logf("create_sec=%g errors=%d scrape_ms=%g tick_p50_ms=%g tick_p99_ms=%g",
		rep.CreateSec, rep.Errors, rep.ScrapeMs, tick.P50Ms, tick.P99Ms)
	if !(rep.CreateSec > 0 && rep.CreateSec < createBound) || rep.Errors != 0 || !(rep.ScrapeMs > 0 && rep.ScrapeMs < 250) {
		h.Fatalf("want create_sec in (0, %g), zero tick errors, scrape_ms in (0, 250)", createBound)
	}

	// The default exposition must stay bounded: no per-session-id series
	// even with the full population resident.
	samples, err := e2e.Scrape(h.Ctx, d.Base())
	h.Must(err)
	for _, s := range samples {
		for k, v := range s.Labels {
			if strings.HasSuffix(k, "id") {
				h.Fatalf("default /metrics leaks a per-session-id series: %s{%s=%q}", s.Name, k, v)
			}
		}
	}

	// Capacity is exact: a store sized to DENSITY_RESIDENT evicted nobody.
	h.Must(samples.Verify(e2e.AtLeast("rebudgetd_sessions_live", float64(resident))))

	// Let the population go idle past -park-after (2s) plus a janitor period
	// (1s); then the parked gauge must cover nearly everyone.
	h.Logf("waiting for the hibernation sweep")
	h.Await(d.Base(), 30*time.Second, time.Second, e2e.AtLeast("rebudgetd_sessions_parked", 0.95*float64(resident)))

	// A parked resident must still wake on touch, through auth.
	if _, err := client.New(d.Base(), client.WithAPIKey(key)).StepEpoch(h.Ctx, "dn-000000"); err != nil {
		h.Fatalf("wake-on-touch: %v", err)
	}
	h.Logf("%d residents, scrape %gms, >= 95%% hibernating, wake-on-touch ok", resident, rep.ScrapeMs)
}

// densityABScenario is the 100k-resident density run behind the
// high-density serving claim: four shards behind a router absorb
// DENSITY_RESIDENT sessions and a 60s open-loop tick at DENSITY_RATE over a
// rotating working set with zero errors. The loadgen report plus a
// post-run shard census (resident and parked populations, RSS) lands in
// .bench/density.json, where scripts/bench_record.sh folds it into the
// dated BENCH_*.json. A measurement run — minutes and real memory — not a
// CI gate.
func densityABScenario(h *e2e.Harness) {
	const key, shards = "density-ab-key", 4
	resident := env(h, "DENSITY_RESIDENT", 100000, strconv.Atoi)
	// Per-shard capacity: an even split plus headroom for ring imbalance.
	f := h.Boot(e2e.Tier{
		Shards: shards,
		ShardFlags: []string{"-max-sessions", strconv.Itoa(resident/shards + resident/shards/2),
			"-idle-ttl", "0", "-park-after", "5s", "-api-key", key},
		Routers: [][]string{{"-backend-api-key", key}},
	})
	h.Logf("%d shards behind router %s, creating %d residents", shards, f.Routers[0].Addr, resident)

	cfg := loadConfig(h, f.Routers[0].Base(), "run")
	cfg.Resident, cfg.CreateParallel, cfg.WorkingSet = resident, 128, 2048
	cfg.Rate, cfg.Duration, cfg.KeepSessions = env(h, "DENSITY_RATE", 500, parseFloat), 60*time.Second, true
	census := struct {
		loadgen.Report
		Shards      int   `json:"shards"`
		ShardLive   int64 `json:"shard_live"`
		ShardParked int64 `json:"shard_parked"`
		ShardRSSKB  int64 `json:"shard_rss_kb"`
	}{Report: runLoad(h, cfg), Shards: shards}

	time.Sleep(8 * time.Second) // let the park sweep catch the now-idle working set
	for _, s := range f.Shards {
		samples, err := e2e.Scrape(h.Ctx, s.Base())
		h.Must(err)
		live, _ := samples.Sum("rebudgetd_sessions_live", nil)
		parked, _ := samples.Sum("rebudgetd_sessions_parked", nil)
		var rss int64 // stays 0 where /proc has no VmRSS to read
		status, _ := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.Pid()))
		if _, after, ok := strings.Cut(string(status), "VmRSS:"); ok {
			_, _ = fmt.Sscan(after, &rss)
		}
		h.Logf("%s live=%g parked=%g rss=%dkB", s.Name, live, parked, rss)
		census.ShardLive += int64(live)
		census.ShardParked += int64(parked)
		census.ShardRSSKB += rss
	}
	enc, err := json.MarshalIndent(census, "", "  ")
	h.Must(err)
	h.Must(os.WriteFile(".bench/density.json", append(enc, '\n'), 0o644))
	if census.ShardLive < int64(resident) || census.Errors != 0 {
		h.Fatalf("%d of %d sessions resident, %d tick errors", census.ShardLive, resident, census.Errors)
	}
	h.Logf("report in .bench/density.json")
}
