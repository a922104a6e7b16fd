package chaos

import (
	"errors"
	"net/http/httptest"
	"testing"

	"rebudget/internal/cluster"
	"rebudget/internal/snapshot"
)

// The fault suite must hold for every snapshot.RawStore backend, not just
// the file store it was written against: against the HTTP snapshot service
// and plain memory too, torn writes and bit rot corrupt the real stored
// bytes and the shared decode path must turn the damage into
// ErrNoSnapshot — a cold start, never a panic.
func clusterBackends(t *testing.T) map[string]snapshot.RawStore {
	t.Helper()
	snapSrv := httptest.NewServer(cluster.NewSnapServer(0, nil).Handler())
	t.Cleanup(snapSrv.Close)
	return map[string]snapshot.RawStore{
		"memory": snapshot.NewMemoryStore(),
		"http":   cluster.NewHTTPSnapshotStore(snapSrv.URL, snapSrv.Client()),
	}
}

func TestFaultyStoreSuiteOverClusterBackends(t *testing.T) {
	for name, inner := range clusterBackends(t) {
		t.Run(name, func(t *testing.T) {
			// Passthrough: a nil injector is transparent.
			pt := NewFaultySnapshotStore(inner, nil)
			if err := pt.Save(testSnap("pt")); err != nil {
				t.Fatal(err)
			}
			if got, err := pt.Load("pt"); err != nil || got.Epochs != 12 {
				t.Fatalf("passthrough load: %+v %v", got, err)
			}
			if err := pt.Delete("pt"); err != nil {
				t.Fatal(err)
			}

			// EIO on save fails without touching the stored snapshot.
			if err := inner.Save(testSnap("eio")); err != nil {
				t.Fatal(err)
			}
			eio := NewFaultySnapshotStore(inner, New(Config{Seed: 5, SaveEIORate: 1}))
			if err := eio.Save(testSnap("eio")); !errors.Is(err, ErrInjectedIO) {
				t.Fatalf("want ErrInjectedIO, got %v", err)
			}
			if got, err := inner.Load("eio"); err != nil || got.Epochs != 12 {
				t.Fatalf("EIO clobbered the stored snapshot: %+v %v", got, err)
			}

			// Torn write: truncated bytes land, decode rejects them.
			torn := NewFaultySnapshotStore(inner, New(Config{Seed: 5, TornWriteRate: 1}))
			if err := torn.Save(testSnap("torn")); err != nil {
				t.Fatal(err)
			}
			if buf, err := inner.LoadRaw("torn"); err != nil || len(buf) == 0 {
				t.Fatalf("torn write left nothing: %d bytes, %v", len(buf), err)
			}
			if _, err := torn.Load("torn"); !errors.Is(err, snapshot.ErrNoSnapshot) {
				t.Fatalf("torn snapshot: want ErrNoSnapshot, got %v", err)
			}

			// Bit rot on load: the checksum catches the flip.
			rot := NewFaultySnapshotStore(inner, New(Config{Seed: 5, LoadCorruptRate: 1}))
			if err := rot.Save(testSnap("rot")); err != nil {
				t.Fatal(err)
			}
			if _, err := rot.Load("rot"); !errors.Is(err, snapshot.ErrNoSnapshot) {
				t.Fatalf("rotted snapshot: want ErrNoSnapshot, got %v", err)
			}

			// Scripted corruption: deterministic flip, caught on next load.
			script := NewFaultySnapshotStore(inner, nil)
			if err := script.Save(testSnap("script")); err != nil {
				t.Fatal(err)
			}
			if err := script.CorruptNow("script", 12345); err != nil {
				t.Fatal(err)
			}
			if _, err := script.Load("script"); !errors.Is(err, snapshot.ErrNoSnapshot) {
				t.Fatalf("scripted corruption: want ErrNoSnapshot, got %v", err)
			}
		})
	}
}

// Under replication, a fault should NOT mean a cold start unless it hits
// every replica: rot or a torn write on a single replica is survived. Each
// replica sits in its own faulty wrapper, the way a deployment injects
// faults; only the first wrapper's faults fire.
func TestReplicatedBackendSurvivesSingleReplicaFaults(t *testing.T) {
	for name, cfg := range map[string]Config{
		"rot":  {Seed: 9, LoadCorruptRate: 1},
		"torn": {Seed: 9, TornWriteRate: 1},
	} {
		t.Run(name, func(t *testing.T) {
			faulty := NewFaultySnapshotStore(snapshot.NewMemoryStore(), New(cfg))
			clean := NewFaultySnapshotStore(snapshot.NewMemoryStore(), nil)
			rs, err := cluster.NewReplicatedSnapshotStore(faulty, clean)
			if err != nil {
				t.Fatal(err)
			}
			if err := rs.Save(testSnap("one")); err != nil {
				t.Fatal(err)
			}
			got, err := rs.Load("one")
			if err != nil || got.Epochs != 12 {
				t.Fatalf("single-replica %s must not cost the snapshot: %+v %v", name, got, err)
			}
		})
	}
}
