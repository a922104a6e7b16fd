package chaos

import (
	"errors"
	"testing"
	"time"

	"rebudget/internal/server"
)

func fileStore(t *testing.T) *server.FileSnapshotStore {
	t.Helper()
	st, err := server.NewFileSnapshotStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func testSnap(id string) *server.SessionSnapshot {
	return &server.SessionSnapshot{
		Version: server.SnapshotVersion,
		ID:      id,
		Spec:    server.SessionSpec{Mechanism: "equalshare", Workload: server.WorkloadSpec{Fig3: true}},
		Epochs:  12,
		Health:  "healthy",
		SavedAt: time.Unix(1700000000, 0).UTC(),
		Market:  &server.MarketSnapshot{Demand: []float64{1.25, 2.5}, Weights: []float64{1, 1}},
	}
}

// A faulty store with a nil injector is a transparent passthrough.
func TestFaultyStorePassthrough(t *testing.T) {
	fs := NewFaultySnapshotStore(fileStore(t), nil)
	if err := fs.Save(testSnap("pt")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Load("pt")
	if err != nil || got.Epochs != 12 {
		t.Fatalf("passthrough load: %+v %v", got, err)
	}
	if err := fs.Delete("pt"); err != nil {
		t.Fatal(err)
	}
}

// EIO on save fails without touching the stored snapshot.
func TestFaultyStoreEIO(t *testing.T) {
	inner := fileStore(t)
	if err := inner.Save(testSnap("eio")); err != nil {
		t.Fatal(err)
	}
	fs := NewFaultySnapshotStore(inner, New(Config{Seed: 5, SaveEIORate: 1}))
	if err := fs.Save(testSnap("eio")); !errors.Is(err, ErrInjectedIO) {
		t.Fatalf("want ErrInjectedIO, got %v", err)
	}
	// The previous good snapshot survives the failed save.
	if got, err := inner.Load("eio"); err != nil || got.Epochs != 12 {
		t.Fatalf("EIO clobbered the stored snapshot: %+v %v", got, err)
	}
}

// A torn write lands truncated bytes; the inner store's load machinery
// must turn that into ErrNoSnapshot (a cold start), never a parse panic.
func TestFaultyStoreTornWrite(t *testing.T) {
	inner := fileStore(t)
	fs := NewFaultySnapshotStore(inner, New(Config{Seed: 5, TornWriteRate: 1}))
	if err := fs.Save(testSnap("torn")); err != nil {
		t.Fatal(err)
	}
	raw, err := inner.LoadRaw("torn")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 {
		t.Fatal("torn write left nothing at all")
	}
	if _, err := fs.Load("torn"); !errors.Is(err, server.ErrNoSnapshot) {
		t.Fatalf("torn snapshot: want ErrNoSnapshot, got %v", err)
	}
	// The same snapshot saved whole is longer than what the torn save left.
	whole := fileStore(t)
	if err := whole.Save(testSnap("torn")); err != nil {
		t.Fatal(err)
	}
	if full, err := whole.LoadRaw("torn"); err != nil || len(raw) >= len(full) {
		t.Fatalf("torn write left %d bytes of a %d-byte snapshot (%v)", len(raw), len(full), err)
	}
}

// Bit rot on load flips real stored bytes; the checksum catches it and the
// load degrades to ErrNoSnapshot.
func TestFaultyStoreLoadCorruption(t *testing.T) {
	inner := fileStore(t)
	fs := NewFaultySnapshotStore(inner, New(Config{Seed: 5, LoadCorruptRate: 1}))
	if err := fs.Save(testSnap("rot")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Load("rot"); !errors.Is(err, server.ErrNoSnapshot) {
		t.Fatalf("rotted snapshot: want ErrNoSnapshot, got %v", err)
	}
}

// CorruptNow is the scripted corruption event: deterministic per draw, and
// caught by the checksum on the next load.
func TestFaultyStoreCorruptNow(t *testing.T) {
	inner := fileStore(t)
	fs := NewFaultySnapshotStore(inner, nil)
	if err := fs.Save(testSnap("script")); err != nil {
		t.Fatal(err)
	}
	if err := fs.CorruptNow("script", 12345); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Load("script"); !errors.Is(err, server.ErrNoSnapshot) {
		t.Fatalf("scripted corruption: want ErrNoSnapshot, got %v", err)
	}
}
