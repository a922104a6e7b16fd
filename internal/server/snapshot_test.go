package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rebudget/internal/server"
	"rebudget/internal/server/client"
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

func fileStore(t *testing.T) (*server.FileSnapshotStore, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := server.NewFileSnapshotStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, dir
}

func TestFileSnapshotStoreRoundTrip(t *testing.T) {
	st, _ := fileStore(t)
	snap := &server.SessionSnapshot{
		Version: server.SnapshotVersion,
		ID:      "rt-1",
		Spec:    server.SessionSpec{Mechanism: "equalshare", Workload: server.WorkloadSpec{Fig3: true}},
		Epochs:  7,
		Health:  "healthy",
		SavedAt: time.Now().UTC(),
		Market:  &server.MarketSnapshot{WarmBids: [][]float64{{1, 2}, {3, 4}}, Demand: []float64{1, 2}, Weights: []float64{1, 1}},
	}
	if err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load("rt-1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Epochs != 7 || !reflect.DeepEqual(got.Market.WarmBids, snap.Market.WarmBids) {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if err := st.Delete("rt-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("rt-1"); err == nil {
		t.Fatal("load after delete should fail")
	}
	// Deleting twice is fine.
	if err := st.Delete("rt-1"); err != nil {
		t.Fatal(err)
	}
}

// Corrupt, truncated, wrong-version, checksum-less and mismatched-id
// snapshot files must all come back as ErrNoSnapshot — a cold start, never a
// serving error.
func TestFileSnapshotStoreUnusableFiles(t *testing.T) {
	st, dir := fileStore(t)
	// Valid bytes for a snapshot of "other": filed under "mismatch" they
	// fail on the id alone, and with the checksum's key damaged (a one-bit
	// flip, 'e' to 'd') and the body edited they must still not load.
	other, err := server.EncodeSnapshot(&server.SessionSnapshot{
		Version: server.SnapshotVersion, ID: "other", Epochs: 3, Health: "healthy",
		Spec: server.SessionSpec{Mechanism: "equalshare", Workload: server.WorkloadSpec{Fig3: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	nosum := strings.NewReplacer(`"checksum"`, `"chdcksum"`, `"id": "other"`, `"id": "nosum"`,
		`"epochs": 3`, `"epochs": 7`).Replace(string(other))
	if !strings.Contains(nosum, `"chdcksum"`) || !strings.Contains(nosum, `"epochs": 7`) || !strings.Contains(nosum, `"id": "nosum"`) {
		t.Fatalf("tamper targets not found in encoded snapshot:\n%s", other)
	}
	cases := map[string]string{
		"garbage":   `{{{{not json`,
		"truncated": `{"version":3,"id":"truncated","spec"`,
		"wrongver":  `{"version":99,"id":"wrongver"}`,
		// Well-formed, but from a retired version and unverifiable: a cold
		// start, not a load (nothing deployed predates version 3).
		"v1":       `{"version":1,"id":"v1","spec":{"workload":{"fig3":true},"mechanism":"equalshare"},"epochs":4,"health":"healthy","saved_at":"2026-01-01T00:00:00Z"}`,
		"v2":       `{"version":2,"id":"v2","epochs":1,"checksum":"crc32:00000000"}`,
		"mismatch": string(other),
		"nosum":    nosum,
		"emptysum": `{"version":3,"id":"emptysum","epochs":1,"checksum":""}`,
		"empty":    ``,
	}
	for id, content := range cases {
		if err := os.WriteFile(filepath.Join(dir, id+".json"), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Load(id); err == nil {
			t.Fatalf("%s: load should fail", id)
		} else if !errors.Is(err, server.ErrNoSnapshot) {
			t.Fatalf("%s: want ErrNoSnapshot, got %v", id, err)
		}
	}
	// An id that cannot be a session id never hits the filesystem.
	if _, err := st.Load("../escape"); !errors.Is(err, server.ErrNoSnapshot) {
		t.Fatalf("path-escape id: want ErrNoSnapshot, got %v", err)
	}
}

// A market session evicted to a snapshot and rehydrated must continue
// bit-identically to a session that was never interrupted — same epoch
// allocations, same utilities — and its first post-restore equilibrium
// must be warm (strictly fewer rounds than a cold solve).
func TestMarketSnapshotRehydrateBitIdentical(t *testing.T) {
	spec := server.SessionSpec{
		ID:        "mkt",
		Workload:  server.WorkloadSpec{Fig3: true},
		Mechanism: "rebudget-0.05",
	}
	tele := server.TelemetrySpec{Players: []server.PlayerTelemetry{{Player: 0, Demand: 2}}}
	ctx := context.Background()
	const preEpochs, postEpochs = 3, 3

	// Reference: one uninterrupted daemon run.
	_, ref, _ := startDaemonWith(t, server.Config{})
	if _, err := ref.CreateSession(ctx, spec); err != nil {
		t.Fatal(err)
	}
	var want []server.SessionView
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
	var got []server.SessionView
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
	spec := server.SessionSpec{
		ID:        "sim",
		Mode:      server.ModeSim,
		Workload:  server.WorkloadSpec{Category: "CCPP", Seed: 7},
		Mechanism: "rebudget-0.05",
	}
	sw := server.TelemetrySpec{Switches: []server.SwitchSpec{{Core: 3, App: "mcf"}}}
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
	if _, err := c.CreateSession(ctx, server.SessionSpec{
		ID: "broken", Workload: server.WorkloadSpec{Fig3: true}, Mechanism: "equalshare",
	}); err != nil {
		t.Fatalf("cold re-create after corrupt snapshot: %v", err)
	}
	if _, err := c.StepEpoch(ctx, "broken"); err != nil {
		t.Fatal(err)
	}
}

// A version-3 snapshot written while the create body still had a retired
// field — the way-quota L2 switch sim.way_partition, or the fault stall
// length sim.faults.stall_iterations — carries it in its spec. Decoding
// drops the field, so the checksum no longer reproduces and the entry is a
// cold start: no session silently resumes on a different cache model or
// fault schedule. The twin written without the field restores, so the field
// alone is what fails.
func TestRetiredL2FieldSnapshotIsColdStart(t *testing.T) {
	const written = `{
  "version": 3,
  "id": "ways",
  "spec": {
    "id": "ways",
    "workload": {
      "fig3": true
    },
    "mechanism": "equalbudget",
    "mode": "sim",
    "sim": {
      "seed": 3%s
    }
  },
  "epochs": 2,
  "health": "healthy",
  "saved_at": "2026-01-02T03:04:05Z",
  "checksum": "crc32:%s",
  "sim": {
    "epochs": 2
  }
}`
	for _, tc := range []struct {
		field, withField, sumWith string // sim's tail as written, and its checksum then
		twin, sumTwin             string // the same tail without the field
	}{
		{"way_partition", ",\n      \"way_partition\": true", "e0530906", "", "37f5dad9"},
		{"stall_iterations",
			",\n      \"faults\": {\n        \"solver_rate\": 0.1,\n        \"stall_iterations\": 2\n      }", "73b67866",
			",\n      \"faults\": {\n        \"solver_rate\": 0.1\n      }", "ce3ad9d6"},
	} {
		withField := fmt.Sprintf(written, tc.withField, tc.sumWith)
		if _, err := server.DecodeSnapshot("ways", []byte(withField)); !errors.Is(err, server.ErrNoSnapshot) {
			t.Errorf("snapshot with %s decoded: %v, want ErrNoSnapshot", tc.field, err)
		}
		without := fmt.Sprintf(written, tc.twin, tc.sumTwin)
		if _, err := server.DecodeSnapshot("ways", []byte(without)); err != nil {
			t.Errorf("the same snapshot without %s: %v", tc.field, err)
		}
	}
}

// DELETE removes the durable snapshot too — nothing resurrects a deleted
// session, whether it was resident or only on disk.
func TestDeleteRemovesSnapshot(t *testing.T) {
	st, _ := fileStore(t)
	ctx := context.Background()
	spec := server.SessionSpec{ID: "gone", Workload: server.WorkloadSpec{Fig3: true}, Mechanism: "equalshare"}

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

// A saved snapshot carries a checksum, and any single flipped bit in the
// stored bytes — even one that keeps the JSON parseable — lands on
// ErrNoSnapshot, deterministically a cold start.
func TestFileSnapshotStoreChecksumCatchesBitFlips(t *testing.T) {
	st, _ := fileStore(t)
	snap := &server.SessionSnapshot{
		Version: server.SnapshotVersion,
		ID:      "bits",
		Spec:    server.SessionSpec{Mechanism: "equalshare", Workload: server.WorkloadSpec{Fig3: true}},
		Epochs:  9,
		Health:  "healthy",
		SavedAt: time.Now().UTC(),
		Market:  &server.MarketSnapshot{Demand: []float64{1.5, 2.5}},
	}
	if err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := st.Load("bits")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Checksum == "" {
		t.Fatal("snapshot saved without a checksum")
	}
	raw, err := st.LoadRaw("bits")
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside the demand vector: still valid JSON, wrong data.
	tampered := []byte(strings.Replace(string(raw), "1.5", "1.6", 1))
	if string(tampered) == string(raw) {
		t.Fatal("tamper target not found in raw snapshot")
	}
	if err := st.SaveRaw("bits", tampered); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("bits"); !errors.Is(err, server.ErrNoSnapshot) {
		t.Fatalf("tampered snapshot: want ErrNoSnapshot, got %v", err)
	}
}

// SaveRaw/LoadRaw round-trip bytes verbatim — the chaos layer depends on
// this seam to model torn writes against the real file.
func TestFileSnapshotStoreRawRoundTrip(t *testing.T) {
	st, _ := fileStore(t)
	data := []byte(`{"version":3,"id":"raw","half`)
	if err := st.SaveRaw("raw", data); err != nil {
		t.Fatal(err)
	}
	got, err := st.LoadRaw("raw")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("raw round-trip mismatch: %q", got)
	}
	if _, err := st.Load("raw"); !errors.Is(err, server.ErrNoSnapshot) {
		t.Fatalf("torn raw file: want ErrNoSnapshot, got %v", err)
	}
}

// simResult reads a sim session's run summary from srv's /result endpoint.
func simResult(t *testing.T, srv *server.Server, id string) server.SimResultView {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id+"/result", nil))
	var v server.SimResultView
	if rec.Code != http.StatusOK {
		t.Fatalf("GET result: %d %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	return v
}
