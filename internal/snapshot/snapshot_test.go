package snapshot_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/snapshot"
)

// fileStore is a FileStore over a fresh temporary directory, and the directory.
func fileStore(t *testing.T) (*snapshot.FileStore, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := snapshot.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, dir
}

func TestFileSnapshotStoreRoundTrip(t *testing.T) {
	st, _ := fileStore(t)
	snap := &snapshot.Session{
		Version: snapshot.Version,
		ID:      "rt-1",
		Spec:    api.SessionSpec{Mechanism: "equalshare", Workload: api.WorkloadSpec{Fig3: true}},
		Epochs:  7,
		Health:  "healthy",
		SavedAt: time.Now().UTC(),
		Market:  &snapshot.Market{WarmBids: [][]float64{{1, 2}, {3, 4}}, Demand: []float64{1, 2}, Weights: []float64{1, 1}},
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
	other, err := snapshot.Encode(&snapshot.Session{
		Version: snapshot.Version, ID: "other", Epochs: 3, Health: "healthy",
		Spec: api.SessionSpec{Mechanism: "equalshare", Workload: api.WorkloadSpec{Fig3: true}},
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
		} else if !errors.Is(err, snapshot.ErrNoSnapshot) {
			t.Fatalf("%s: want ErrNoSnapshot, got %v", id, err)
		}
	}
	// An id that cannot be a session id never hits the filesystem.
	if _, err := st.Load("../escape"); !errors.Is(err, snapshot.ErrNoSnapshot) {
		t.Fatalf("path-escape id: want ErrNoSnapshot, got %v", err)
	}
}

// A saved snapshot carries a checksum, and any single flipped bit in the
// stored bytes — even one that keeps the JSON parseable — lands on
// ErrNoSnapshot, deterministically a cold start.
func TestFileSnapshotStoreChecksumCatchesBitFlips(t *testing.T) {
	st, _ := fileStore(t)
	snap := &snapshot.Session{
		Version: snapshot.Version,
		ID:      "bits",
		Spec:    api.SessionSpec{Mechanism: "equalshare", Workload: api.WorkloadSpec{Fig3: true}},
		Epochs:  9,
		Health:  "healthy",
		SavedAt: time.Now().UTC(),
		Market:  &snapshot.Market{Demand: []float64{1.5, 2.5}},
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
	if _, err := st.Load("bits"); !errors.Is(err, snapshot.ErrNoSnapshot) {
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
	if _, err := st.Load("raw"); !errors.Is(err, snapshot.ErrNoSnapshot) {
		t.Fatalf("torn raw file: want ErrNoSnapshot, got %v", err)
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
		if _, err := snapshot.Decode("ways", []byte(withField)); !errors.Is(err, snapshot.ErrNoSnapshot) {
			t.Errorf("snapshot with %s decoded: %v, want ErrNoSnapshot", tc.field, err)
		}
		without := fmt.Sprintf(written, tc.twin, tc.sumTwin)
		if _, err := snapshot.Decode("ways", []byte(without)); err != nil {
			t.Errorf("the same snapshot without %s: %v", tc.field, err)
		}
	}
}
