package snapshot_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/snapshot"
)

// FuzzSnapshotLoad hammers the snapshot decode path with arbitrary bytes:
// whatever is on disk — valid files, retired v1/v2 files, truncated or
// missing checksums, garbage JSON, wrong versions — Load must either return
// a valid snapshot or ErrNoSnapshot (a cold start). It must never panic and
// never surface any other error: the rehydrate path's contract is "no worse
// than cold".
func FuzzSnapshotLoad(f *testing.F) {
	valid := &snapshot.Session{
		Version: snapshot.Version,
		ID:      "fuzz",
		Spec: api.SessionSpec{
			ID: "fuzz", Tenant: "acme/prod",
			Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "equalshare",
		},
		Epochs:  3,
		Health:  "ok",
		SavedAt: time.Unix(1700000000, 0).UTC(),
	}
	seedStore, err := snapshot.NewFileStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := seedStore.Save(valid); err != nil {
		f.Fatal(err)
	}
	validBytes, err := seedStore.LoadRaw("fuzz")
	if err != nil {
		f.Fatal(err)
	}

	v1, _ := json.Marshal(map[string]any{"version": 1, "id": "fuzz", "epochs": 1})
	v2, _ := json.Marshal(map[string]any{"version": 2, "id": "fuzz", "epochs": 1})
	v2bad, _ := json.Marshal(map[string]any{
		"version": 2, "id": "fuzz", "epochs": 1, "checksum": "crc32:00000000",
	})

	// The checksum's key damaged by one bit and the body edited: the sum is
	// absent, not wrong, and must fail all the same.
	nosum := bytes.Replace(validBytes, []byte(`"checksum"`), []byte(`"chdcksum"`), 1)
	nosum = bytes.Replace(nosum, []byte(`"epochs": 3`), []byte(`"epochs": 7`), 1)

	f.Add(validBytes)                                      // well-formed v3 with a good checksum
	f.Add(v1)                                              // v1: retired version
	f.Add(v2)                                              // v2 without checksum: retired version
	f.Add(v2bad)                                           // v2 with a checksum: retired version
	f.Add(validBytes[:len(validBytes)/2])                  // truncated mid-checksum
	f.Add([]byte(`{"version":3,`))                         // garbage JSON
	f.Add([]byte(`{"version":9,"id":"fuzz"}`))             // unknown version
	f.Add([]byte(`{"version":3,"id":"other","epochs":1}`)) // id mismatch
	f.Add([]byte(`{"version":3,"id":"fuzz","epochs":-1}`)) // negative epochs
	f.Add([]byte{})
	f.Add([]byte("null"))
	f.Add(nosum)                                          // v3, checksum key damaged
	f.Add([]byte(`{"version":3,"id":"fuzz","epochs":1}`)) // v3, checksum never written

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := snapshot.NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.SaveRaw("fuzz", data); err != nil {
			t.Fatal(err)
		}
		snap, err := st.Load("fuzz")
		if err != nil {
			if !errors.Is(err, snapshot.ErrNoSnapshot) {
				t.Fatalf("Load returned a non-ErrNoSnapshot error: %v", err)
			}
			return
		}
		// Accepted snapshots must be internally coherent — that is what the
		// rehydrate path assumes of them.
		if snap.ID != "fuzz" {
			t.Fatalf("accepted snapshot with mismatched id %q", snap.ID)
		}
		if snap.Version != snapshot.Version {
			t.Fatalf("accepted snapshot with version %d", snap.Version)
		}
		if snap.Checksum == "" {
			t.Fatal("accepted snapshot without a checksum")
		}
		if snap.Epochs < 0 {
			t.Fatalf("accepted snapshot with negative epochs %d", snap.Epochs)
		}
	})
}
