package server_test

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"rebudget/internal/core"
	"rebudget/internal/server"
	"rebudget/internal/server/client"
	"rebudget/internal/workload"
)

// startDaemon stands up a daemon and a typed client against it.
func startDaemon(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, client.New(ts.URL)
}

// offlineEpochs replays the daemon's per-epoch allocation sequence with the
// offline core API: the same mechanism, warm bids threaded identically.
func offlineEpochs(t *testing.T, alloc core.Allocator, epochs int, warm bool) [][][]float64 {
	t.Helper()
	bundle, err := workload.Figure3Bundle()
	if err != nil {
		t.Fatal(err)
	}
	setup, err := workload.NewSetup(bundle)
	if err != nil {
		t.Fatal(err)
	}
	var seq [][][]float64
	var warmBids [][]float64
	for e := 0; e < epochs; e++ {
		a := alloc
		if warm {
			a = core.WithWarmBids(alloc, warmBids)
			alloc = a
		}
		out, err := a.Allocate(setup.Capacity, setup.Players)
		if err != nil {
			t.Fatal(err)
		}
		if warm {
			warmBids = out.Bids
		}
		seq = append(seq, out.Allocations)
	}
	return seq
}

func boolPtr(b bool) *bool { return &b }

// TestWarmStartBitIdenticalToOfflineRun is the acceptance criterion: a
// daemon session's per-epoch allocations must equal an offline core run
// that threads warm bids through core.WithWarmBids the same way — no
// serving-layer drift, float for float.
func TestWarmStartBitIdenticalToOfflineRun(t *testing.T) {
	const epochs = 4
	cases := []struct {
		name      string
		mechanism string
		alloc     core.Allocator
		resilient bool
	}{
		{"equalbudget", "equalbudget", core.EqualBudget{}, false},
		{"rebudget", "rebudget-0.05", core.ReBudget{Step: 0.05}, false},
		{"equalbudget-resilient", "equalbudget",
			core.NewResilient(core.EqualBudget{}, core.ResilientConfig{}), true},
	}
	_, c := startDaemon(t, server.Config{})
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := offlineEpochs(t, tc.alloc, epochs, true)
			v, err := c.CreateSession(ctx, server.SessionSpec{
				ID:        "warm-" + tc.name,
				Workload:  server.WorkloadSpec{Fig3: true},
				Mechanism: tc.mechanism,
				Resilient: boolPtr(tc.resilient),
			})
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < epochs; e++ {
				v, err = c.StepEpoch(ctx, v.ID)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(v.Alloc.Allocations, want[e]) {
					t.Fatalf("epoch %d diverged from offline run:\ndaemon  %v\noffline %v",
						e, v.Alloc.Allocations, want[e])
				}
			}
		})
	}
}

// TestColdSessionsMatchFreshSolves: with warm_start disabled every epoch is
// an independent cold solve, bit-identical to a one-shot offline Allocate.
func TestColdSessionsMatchFreshSolves(t *testing.T) {
	_, c := startDaemon(t, server.Config{})
	ctx := context.Background()
	want := offlineEpochs(t, core.EqualBudget{}, 1, false)[0]
	v, err := c.CreateSession(ctx, server.SessionSpec{
		ID:        "cold",
		Workload:  server.WorkloadSpec{Fig3: true},
		Mechanism: "equalbudget",
		Resilient: boolPtr(false),
		WarmStart: boolPtr(false),
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		v, err = c.StepEpoch(ctx, v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v.Alloc.Allocations, want) {
			t.Fatalf("cold epoch %d differs from a fresh solve", e)
		}
	}
}

func TestClientLifecycle(t *testing.T) {
	_, c := startDaemon(t, server.Config{})
	ctx := context.Background()

	v, err := c.CreateSession(ctx, server.SessionSpec{
		Workload:  server.WorkloadSpec{Fig3: true},
		Mechanism: "rebudget-0.05",
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.ID == "" {
		t.Fatal("daemon did not generate a session id")
	}
	if v.Mode != server.ModeMarket || v.Cores != 8 {
		t.Fatalf("unexpected view: mode %q cores %d", v.Mode, v.Cores)
	}

	list, err := c.ListSessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != v.ID {
		t.Fatalf("list = %v", list)
	}

	stepped, err := c.StepEpochs(ctx, v.ID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stepped.Epochs != 2 || stepped.Alloc == nil {
		t.Fatalf("after 2 epochs: epochs %d alloc %v", stepped.Epochs, stepped.Alloc)
	}
	if stepped.Alloc.MUR == nil || stepped.Alloc.MBR == nil {
		t.Fatal("market outcome missing MUR/MBR")
	}

	if _, err := c.Telemetry(ctx, v.ID, server.TelemetrySpec{
		Players: []server.PlayerTelemetry{{Player: 1, Demand: 1.5}},
	}); err != nil {
		t.Fatal(err)
	}

	h, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Sessions != 1 {
		t.Fatalf("healthz = %+v", h)
	}

	if err := c.DeleteSession(ctx, v.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetSession(ctx, v.ID); err == nil {
		t.Fatal("deleted session still served")
	} else if ae, ok := err.(*client.APIError); !ok || ae.Status != 404 {
		t.Fatalf("expected 404 APIError, got %v", err)
	}
}

// TestConcurrent64Sessions is the stress acceptance criterion: at least 64
// sessions served concurrently, allocations bit-identical to offline core
// runs, goroutine count bounded, zero data races (make ci runs this under
// -race).
func TestConcurrent64Sessions(t *testing.T) {
	const sessions = 64
	const epochs = 3
	srv, c := startDaemon(t, server.Config{MaxSessions: sessions + 8})
	ctx := context.Background()
	want := offlineEpochs(t, core.EqualBudget{}, epochs, true)

	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("stress-%02d", i)
			spec := server.SessionSpec{
				ID:        id,
				Workload:  server.WorkloadSpec{Fig3: true},
				Mechanism: "equalbudget",
				Resilient: boolPtr(false),
			}
			if err := withBusyRetry(func() error {
				_, err := c.CreateSession(ctx, spec)
				return err
			}); err != nil {
				errs <- fmt.Errorf("%s: create: %w", id, err)
				return
			}
			for e := 0; e < epochs; e++ {
				var v server.SessionView
				if err := withBusyRetry(func() error {
					var err error
					v, err = c.StepEpoch(ctx, id)
					return err
				}); err != nil {
					errs <- fmt.Errorf("%s: epoch %d: %w", id, e, err)
					return
				}
				if !reflect.DeepEqual(v.Alloc.Allocations, want[e]) {
					errs <- fmt.Errorf("%s: epoch %d diverged from offline run", id, e)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := srv.Sessions(); n != sessions {
		t.Fatalf("sessions live = %d, want %d", n, sessions)
	}
	// One goroutine per session plus constant overhead — nothing
	// per-request survives the burst.
	during := runtime.NumGoroutine()
	if during > before+sessions+64 {
		t.Errorf("goroutines ballooned: %d -> %d for %d sessions", before, during, sessions)
	}
	// Deleting every session must release their loop goroutines.
	for i := 0; i < sessions; i++ {
		if err := c.DeleteSession(ctx, fmt.Sprintf("stress-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for runtime.NumGoroutine() > before+16 {
		select {
		case <-deadline:
			t.Fatalf("goroutines leaked after delete: %d -> %d", before, runtime.NumGoroutine())
		default:
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// withBusyRetry retries a call while the daemon sheds load with 429s.
func withBusyRetry(f func() error) error {
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if err = f(); !client.IsBusy(err) {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
	return err
}

// TestConcurrentCreateTickEvict churns session lifecycle from several
// goroutines against a tiny LRU cap while ticker sessions self-drive
// epochs — the eviction/ticker/request interleavings the race detector
// needs to see.
func TestConcurrentCreateTickEvict(t *testing.T) {
	_, c := startDaemon(t, server.Config{MaxSessions: 8})
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				id := fmt.Sprintf("churn-%d-%d", g, k)
				spec := server.SessionSpec{
					ID:           id,
					Workload:     server.WorkloadSpec{Fig3: true},
					Mechanism:    "equalbudget",
					Resilient:    boolPtr(false),
					TickerMillis: 20,
				}
				if err := withBusyRetry(func() error {
					_, err := c.CreateSession(ctx, spec)
					return err
				}); err != nil {
					t.Errorf("%s: create: %v", id, err)
					return
				}
				// Race client-driven epochs against the session's own
				// ticker and other goroutines' LRU evictions. Evicted or
				// mid-delete sessions legitimately answer 404/410.
				err := withBusyRetry(func() error {
					_, err := c.StepEpoch(ctx, id)
					return err
				})
				if ae, ok := err.(*client.APIError); err != nil && (!ok || (ae.Status != 404 && ae.Status != 410)) {
					t.Errorf("%s: epoch: %v", id, err)
					return
				}
				if k%2 == 0 {
					if err := c.DeleteSession(ctx, id); err != nil {
						if ae, ok := err.(*client.APIError); !ok || ae.Status != 404 {
							t.Errorf("%s: delete: %v", id, err)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDensityOffConfigBitIdentical pins the daemon to the offline core
// loop: the default configuration (hibernation armed) emits exactly the
// offline allocator outputs, and so does one with hibernation switched
// off — the density machinery changes scheduling, never arithmetic.
func TestDensityOffConfigBitIdentical(t *testing.T) {
	const epochs = 4
	configs := []struct {
		name string
		cfg  server.Config
	}{
		{"density-default", server.Config{}},
		{"park-off", server.Config{ParkAfter: -1}},
	}
	want := offlineEpochs(t, core.ReBudget{Step: 0.05}, epochs, true)
	ctx := context.Background()
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			_, c := startDaemon(t, tc.cfg)
			v, err := c.CreateSession(ctx, server.SessionSpec{
				ID:        "pin",
				Workload:  server.WorkloadSpec{Fig3: true},
				Mechanism: "rebudget-0.05",
			})
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < epochs; e++ {
				v, err = c.StepEpoch(ctx, v.ID)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(v.Alloc.Allocations, want[e]) {
					t.Fatalf("%s: epoch %d diverged from offline run:\ndaemon  %v\noffline %v",
						tc.name, e, v.Alloc.Allocations, want[e])
				}
			}
		})
	}
}

// TestClientAPIKeyRoundTrip: the typed client's WithAPIKey speaks the
// daemon's bearer scheme end to end; a keyless client is refused on
// mutations but can still read.
func TestClientAPIKeyRoundTrip(t *testing.T) {
	srv := server.New(server.Config{APIKey: "hunter2",
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	ctx := context.Background()
	spec := server.SessionSpec{ID: "keyed", Workload: server.WorkloadSpec{Fig3: true}, Mechanism: "equalshare"}

	bare := client.New(ts.URL)
	if _, err := bare.CreateSession(ctx, spec); err == nil {
		t.Fatal("keyless create succeeded against a keyed daemon")
	} else if ae, ok := err.(*client.APIError); !ok || ae.Status != 401 {
		t.Fatalf("keyless create: want 401 APIError, got %v", err)
	}

	keyed := client.New(ts.URL, client.WithAPIKey("hunter2"))
	if _, err := keyed.CreateSession(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := keyed.StepEpoch(ctx, "keyed"); err != nil {
		t.Fatal(err)
	}
	// Reads stay open for the keyless client.
	if _, err := bare.GetSession(ctx, "keyed"); err != nil {
		t.Fatalf("keyless read: %v", err)
	}
}
