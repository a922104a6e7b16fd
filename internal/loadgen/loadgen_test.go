package loadgen

import (
	"context"
	"io"
	"log/slog"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"rebudget/internal/server"
)

// TestSeedFixesMixAndArrivals: the class mix, the tenant labelling and the
// open-loop arrival schedule are functions of the seed alone.
func TestSeedFixesMixAndArrivals(t *testing.T) {
	cfg := Defaults()
	cfg.Sessions, cfg.CheapFrac = 30, 0.8
	tenants, err := parseTenantMix("web:steady:2,batch:bursty,spare:idle")
	if err != nil {
		t.Fatal(err)
	}
	draw := func(seed int64) ([]member, []time.Duration) {
		cfg.Seed = seed
		rng := rand.New(rand.NewSource(seed))
		mix := buildMix(cfg, tenants, rng)
		gaps := make([]time.Duration, 50)
		for i := range gaps {
			gaps[i] = arrivalGap(rng, 10*time.Millisecond)
		}
		return mix, gaps
	}
	mixA, gapsA := draw(7)
	mixB, gapsB := draw(7)
	if !reflect.DeepEqual(mixA, mixB) || !reflect.DeepEqual(gapsA, gapsB) {
		t.Fatal("the same seed drew a different mix or arrival schedule")
	}
	mixC, gapsC := draw(8)
	if reflect.DeepEqual(mixA, mixC) || reflect.DeepEqual(gapsA, gapsC) {
		t.Fatal("different seeds drew the same mix or arrival schedule")
	}

	cheap, perTenant, ids := 0, map[string]int{}, map[string]bool{}
	for _, m := range mixA {
		if m.class == "cheap" {
			cheap++
			if m.spec.Workload.Cores != cfg.CheapCores || m.spec.WarmStart != nil {
				t.Errorf("cheap spec %+v", m.spec)
			}
		} else if m.spec.Workload.Cores != expensiveCores || m.spec.WarmStart == nil || *m.spec.WarmStart {
			t.Errorf("expensive spec %+v: want %d cores, cold start", m.spec, expensiveCores)
		}
		if m.spec.Tenant != m.tenant.name || m.tenant.name == "" {
			t.Errorf("session %s: spec tenant %q, mix tenant %q", m.spec.ID, m.spec.Tenant, m.tenant.name)
		}
		perTenant[m.tenant.name]++
		ids[m.spec.ID] = true
	}
	if cheap != 24 || len(ids) != 30 {
		t.Errorf("%d cheap of %d distinct sessions, want 24 of 30", cheap, len(ids))
	}
	if perTenant["web"] <= perTenant["batch"] || perTenant["web"] <= perTenant["spare"] {
		t.Errorf("weight-2 tenant did not get the largest share: %v", perTenant)
	}
	var mean time.Duration
	for _, g := range gapsA {
		mean += g / time.Duration(len(gapsA))
	}
	if mean < 5*time.Millisecond || mean > 20*time.Millisecond {
		t.Errorf("mean arrival gap %s, want ~10ms", mean)
	}
}

func TestParseTenantMix(t *testing.T) {
	good := map[string][]tenantMix{
		"":                         nil,
		"web:steady":               {{"web", "steady", 1}},
		" web:steady:2 , b:idle, ": {{"web", "steady", 2}, {"b", "idle", 1}},
		"x:bursty:0.5":             {{"x", "bursty", 0.5}},
	}
	for arg, want := range good {
		if got, err := parseTenantMix(arg); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseTenantMix(%q) = %v, %v; want %v", arg, got, err, want)
		}
	}
	for _, arg := range []string{"web", "web:fast", "web:steady:0", "web:steady:-1", "web:steady:two", "web:steady:1:extra"} {
		if got, err := parseTenantMix(arg); err == nil {
			t.Errorf("parseTenantMix(%q) = %v, want an error", arg, got)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	one2ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		sorted []float64
		p      float64
		want   float64
	}{
		{nil, 0.99, 0},
		{[]float64{4}, 0, 4},
		{[]float64{4}, 1, 4},
		{one2ten, 0, 1},
		{one2ten, 0.5, 5},
		{one2ten, 0.51, 6},
		{one2ten, 0.99, 10},
		{one2ten, 0.999, 10},
		{one2ten, 1, 10},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", tc.sorted, tc.p, got, tc.want)
		}
	}
}

// TestRunAgainstServer drives both modes against an in-process rebudgetd.
func TestRunAgainstServer(t *testing.T) {
	srv := server.New(server.Config{
		MaxSessions: 256,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		Tenancy:     &server.TenancyConfig{},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })

	for _, mode := range []string{"closed", "open"} {
		t.Run(mode+" loop with a tenant mix", func(t *testing.T) { mixRun(t, ts.URL, mode) })
	}

	t.Run("density mode", func(t *testing.T) {
		cfg := Defaults()
		cfg.Target = ts.URL
		cfg.Resident, cfg.CreateParallel, cfg.WorkingSet = 40, 8, 64
		cfg.Rate, cfg.Duration = 400, 250*time.Millisecond
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Mode != "resident" || rep.Resident != 40 || rep.WorkingSet != 40 {
			t.Errorf("mode %q resident %d working set %d, want resident 40 40 (window clamped)", rep.Mode, rep.Resident, rep.WorkingSet)
		}
		if rep.OK == 0 || rep.Errors != 0 || rep.CreateSec <= 0 || rep.ScrapeMs <= 0 || rep.ScrapeBytes == 0 {
			t.Errorf("ok=%d errors=%d create_sec=%g scrape_ms=%g scrape_bytes=%d",
				rep.OK, rep.Errors, rep.CreateSec, rep.ScrapeMs, rep.ScrapeBytes)
		}
	})

	t.Run("rejects bad configuration", func(t *testing.T) {
		for _, mutate := range []func(*Config){
			func(c *Config) { c.CheapFrac = 1.5 },
			func(c *Config) { c.Mode = "burst" },
			func(c *Config) { c.Tenants = "web:fast" },
			func(c *Config) { c.Sessions = 0 },
			func(c *Config) { c.Mode, c.Rate = "open", 0 },
			func(c *Config) { c.Resident, c.WorkingSet = 10, 0 },
			func(c *Config) { c.Resident, c.CreateParallel = 10, 0 },
		} {
			cfg := Defaults()
			cfg.Target = ts.URL
			mutate(&cfg)
			if _, err := Run(context.Background(), cfg); err == nil {
				t.Errorf("Run accepted %+v", cfg)
			}
		}
	})
}

// mixRun is one short mix-mode run against target in the given loop mode.
func mixRun(t *testing.T, target, mode string) {
	cfg := Defaults()
	cfg.Target, cfg.Label, cfg.Mode = target, "unit", mode
	cfg.Sessions, cfg.CheapFrac, cfg.Concurrency, cfg.Rate = 6, 0.5, 3, 300
	cfg.Duration, cfg.Tenants = 300*time.Millisecond, "a:steady,b:steady"
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK == 0 || rep.Errors != 0 || rep.Requests != rep.OK+rep.Busy429 {
		t.Errorf("ok=%d errors=%d busy=%d requests=%d", rep.OK, rep.Errors, rep.Busy429, rep.Requests)
	}
	if rep.Sessions != 6 || rep.Classes["cheap"].Sessions != 3 || rep.Classes["expensive"].Sessions != 3 {
		t.Errorf("sessions %d, classes %+v", rep.Sessions, rep.Classes)
	}
	if len(rep.Tenants) != 2 || rep.Tenants["a"].Sessions+rep.Tenants["b"].Sessions != 6 ||
		rep.Tenants["a"].OK+rep.Tenants["b"].OK != rep.OK {
		t.Errorf("tenant section %+v does not add up to the run (ok=%d)", rep.Tenants, rep.OK)
	}
	if cr := rep.Classes["cheap"]; cr.OK > 0 && !(cr.P50Ms > 0 && cr.P50Ms <= cr.P99Ms && cr.P99Ms <= cr.P999Ms) {
		t.Errorf("cheap percentiles out of order: %+v", cr)
	}
}
