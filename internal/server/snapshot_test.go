package server_test

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/server"
	"rebudget/internal/server/client"
	"rebudget/internal/snapshot"
)

// startDaemonWith stands up a daemon with a snapshot store and a typed
// client against it, returning both plus a shutdown func that drains the
// daemon (writing snapshots) without tearing down the test.
func startDaemonWith(t *testing.T, cfg server.Config) (*server.Server, *client.Client, func()) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	closed := false
	shutdown := func() {
		if !closed {
			closed = true
			ts.Close()
			srv.Close()
		}
	}
	t.Cleanup(shutdown)
	return srv, client.New(ts.URL), shutdown
}

func fileStore(t *testing.T) (*snapshot.FileStore, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := snapshot.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, dir
}

// A market session evicted to a snapshot and rehydrated must continue
// bit-identically to a session that was never interrupted — same epoch
// allocations, same utilities — and its first post-restore equilibrium
// must be warm (strictly fewer rounds than a cold solve).
func TestMarketSnapshotRehydrateBitIdentical(t *testing.T) {
	spec := api.SessionSpec{
		ID:        "mkt",
		Workload:  api.WorkloadSpec{Fig3: true},
		Mechanism: "rebudget-0.05",
	}
	tele := api.TelemetrySpec{Players: []api.PlayerTelemetry{{Player: 0, Demand: 2}}}
	ctx := context.Background()
	const preEpochs, postEpochs = 3, 3

	// Reference: one uninterrupted daemon run.
	_, ref, _ := startDaemonWith(t, server.Config{})
	if _, err := ref.CreateSession(ctx, spec); err != nil {
		t.Fatal(err)
	}
	var want []api.SessionView
	for e := 0; e < preEpochs; e++ {
		v, err := ref.StepEpoch(ctx, "mkt")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, v)
	}
	if _, err := ref.Telemetry(ctx, "mkt", tele); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < postEpochs; e++ {
		v, err := ref.StepEpoch(ctx, "mkt")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, v)
	}

	// Interrupted: same prefix on daemon A, drain (snapshot), resume on a
	// fresh daemon B sharing the store.
	st, _ := fileStore(t)
	_, a, shutdownA := startDaemonWith(t, server.Config{Snapshots: st})
	if _, err := a.CreateSession(ctx, spec); err != nil {
		t.Fatal(err)
	}
	var got []api.SessionView
	for e := 0; e < preEpochs; e++ {
		v, err := a.StepEpoch(ctx, "mkt")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
	if _, err := a.Telemetry(ctx, "mkt", tele); err != nil {
		t.Fatal(err)
	}
	shutdownA()

	_, b, _ := startDaemonWith(t, server.Config{Snapshots: st})
	v, err := b.GetSession(ctx, "mkt") // lazy rehydrate on first touch
	if err != nil {
		t.Fatalf("rehydrate: %v", err)
	}
	if v.Epochs != preEpochs {
		t.Fatalf("rehydrated session reports %d epochs, want %d", v.Epochs, preEpochs)
	}
	for e := 0; e < postEpochs; e++ {
		v, err := b.StepEpoch(ctx, "mkt")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}

	for i := range want {
		wa, ga := want[i].Alloc, got[i].Alloc
		if wa == nil || ga == nil {
			t.Fatalf("epoch %d: missing allocation", i)
		}
		if !reflect.DeepEqual(wa.Allocations, ga.Allocations) {
			t.Fatalf("epoch %d allocations diverge:\nuninterrupted %v\nrehydrated    %v",
				i, wa.Allocations, ga.Allocations)
		}
		if !reflect.DeepEqual(wa.Utilities, ga.Utilities) || wa.Iterations != ga.Iterations {
			t.Fatalf("epoch %d view diverges (iterations %d vs %d)", i, wa.Iterations, ga.Iterations)
		}
	}

	// Warm resume: the first post-restore epoch re-converged from the
	// snapshot's bids, so it must cost strictly fewer rounds than the same
	// session's cold first epoch.
	coldRounds := want[0].Alloc.Iterations
	warmRounds := got[preEpochs].Alloc.Iterations
	if warmRounds >= coldRounds {
		t.Fatalf("post-restore equilibrium not warm: %d rounds, cold solve took %d", warmRounds, coldRounds)
	}
}

// A sim session replayed from its snapshot (deterministic epochs + the
// context-switch journal) must match the uninterrupted run bit-for-bit.
func TestSimSnapshotRehydrateBitIdentical(t *testing.T) {
	spec := api.SessionSpec{
		ID:        "sim",
		Mode:      api.ModeSim,
		Workload:  api.WorkloadSpec{Category: "CCPP", Seed: 7},
		Mechanism: "rebudget-0.05",
	}
	sw := api.TelemetrySpec{Switches: []api.SwitchSpec{{Core: 3, App: "mcf"}}}
	ctx := context.Background()

	run := func(c *client.Client, pre bool) {
		t.Helper()
		if pre {
			if _, err := c.CreateSession(ctx, spec); err != nil {
				t.Fatal(err)
			}
			if _, err := c.StepEpochs(ctx, "sim", 4); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Telemetry(ctx, "sim", sw); err != nil {
				t.Fatal(err)
			}
			if _, err := c.StepEpochs(ctx, "sim", 2); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := c.StepEpochs(ctx, "sim", 4); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The rehydrate on first touch replays every sim epoch inside one
	// request; under -race on a slow host that can outrun the default
	// 10s request deadline, so give these daemons a generous one — this
	// test pins bit-identity, not latency.
	slow := server.Config{RequestTimeout: 2 * time.Minute}
	refSrv, ref, _ := startDaemonWith(t, slow)
	run(ref, true)
	run(ref, false)
	want := simResult(t, refSrv, "sim")
	wantView, err := ref.GetSession(ctx, "sim")
	if err != nil {
		t.Fatal(err)
	}

	st, _ := fileStore(t)
	slowSnap := slow
	slowSnap.Snapshots = st
	_, a, shutdownA := startDaemonWith(t, slowSnap)
	run(a, true)
	shutdownA()

	bSrv, b, _ := startDaemonWith(t, slowSnap)
	v, err := b.GetSession(ctx, "sim")
	if err != nil {
		t.Fatalf("rehydrate: %v", err)
	}
	if v.Sim == nil || v.Sim.Epochs != 6 {
		t.Fatalf("rehydrated sim session not replayed to 6 epochs: %+v", v.Sim)
	}
	run(b, false)
	got := simResult(t, bSrv, "sim")
	gotView, err := b.GetSession(ctx, "sim")
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(want.NormPerf, got.NormPerf) ||
		want.WeightedSpeedup != got.WeightedSpeedup ||
		want.EnvyFreeness != got.EnvyFreeness ||
		want.AvgPowerW != got.AvgPowerW ||
		want.MaxTempC != got.MaxTempC {
		t.Fatalf("sim results diverge:\nuninterrupted %+v\nrehydrated    %+v", want, got)
	}
	if !reflect.DeepEqual(wantView.Sim.FrequenciesGHz, gotView.Sim.FrequenciesGHz) ||
		!reflect.DeepEqual(wantView.Sim.PowerBudgetsW, gotView.Sim.PowerBudgetsW) ||
		!reflect.DeepEqual(wantView.Alloc.Allocations, gotView.Alloc.Allocations) {
		t.Fatalf("sim hardware state diverges after rehydrate")
	}
}

// A corrupt snapshot file degrades to a cold start: the touch answers 404
// (so the client recreates) instead of erroring, and a fresh create under
// the same id works.
func TestCorruptSnapshotColdStart(t *testing.T) {
	st, dir := fileStore(t)
	_, c, _ := startDaemonWith(t, server.Config{Snapshots: st})
	ctx := context.Background()

	if err := os.WriteFile(filepath.Join(dir, "broken.json"), []byte(`{"version":3,"id":"broken"`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := c.GetSession(ctx, "broken")
	ae, ok := err.(*client.APIError)
	if !ok || ae.Status != 404 {
		t.Fatalf("corrupt snapshot should 404 (cold start), got %v", err)
	}
	if _, err := c.CreateSession(ctx, api.SessionSpec{
		ID: "broken", Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "equalshare",
	}); err != nil {
		t.Fatalf("cold re-create after corrupt snapshot: %v", err)
	}
	if _, err := c.StepEpoch(ctx, "broken"); err != nil {
		t.Fatal(err)
	}
}

// DELETE removes the durable snapshot too — nothing resurrects a deleted
// session, whether it was resident or only on disk.
func TestDeleteRemovesSnapshot(t *testing.T) {
	st, _ := fileStore(t)
	ctx := context.Background()
	spec := api.SessionSpec{ID: "gone", Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "equalshare"}

	_, a, shutdownA := startDaemonWith(t, server.Config{Snapshots: st})
	if _, err := a.CreateSession(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := a.StepEpoch(ctx, "gone"); err != nil {
		t.Fatal(err)
	}
	shutdownA() // drain → snapshot written

	_, b, _ := startDaemonWith(t, server.Config{Snapshots: st})
	// Delete while non-resident: the snapshot itself is the session.
	if err := b.DeleteSession(ctx, "gone"); err != nil {
		t.Fatalf("delete of snapshotted session: %v", err)
	}
	if _, err := b.GetSession(ctx, "gone"); err == nil {
		t.Fatal("deleted session came back from the dead")
	}
}

// simResult reads a sim session's run summary from srv's /result endpoint.
func simResult(t *testing.T, srv *server.Server, id string) api.SimResultView {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id+"/result", nil))
	var v api.SimResultView
	if rec.Code != http.StatusOK {
		t.Fatalf("GET result: %d %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	return v
}
