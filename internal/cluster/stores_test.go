package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/snapshot"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func clusterSnap(id string, epochs int) *snapshot.Session {
	return &snapshot.Session{
		Version: snapshot.Version,
		ID:      id,
		Spec:    api.SessionSpec{Mechanism: "equalshare", Workload: api.WorkloadSpec{Fig3: true}},
		Epochs:  int64(epochs),
		Health:  "healthy",
		SavedAt: time.Unix(1700000000+int64(epochs), 0).UTC(),
		Market:  &snapshot.Market{Demand: []float64{1.25, 2.5}, Weights: []float64{1, 1}},
	}
}

func newHTTPStore(t *testing.T) (*HTTPSnapshotStore, *SnapServer) {
	t.Helper()
	ss := NewSnapServer(0, discardLogger())
	srv := httptest.NewServer(ss.Handler())
	t.Cleanup(srv.Close)
	return NewHTTPSnapshotStore(srv.URL, srv.Client()), ss
}

// --- HTTP store / snap server ---

func TestHTTPStoreRoundTrip(t *testing.T) {
	hs, ss := newHTTPStore(t)
	if err := hs.Save(clusterSnap("rt", 12)); err != nil {
		t.Fatal(err)
	}
	got, err := hs.Load("rt")
	if err != nil || got.Epochs != 12 {
		t.Fatalf("load: %+v %v", got, err)
	}
	if ss.Len() != 1 {
		t.Fatalf("server holds %d snapshots, want 1", ss.Len())
	}
	if err := hs.Delete("rt"); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.Load("rt"); !errors.Is(err, snapshot.ErrNoSnapshot) {
		t.Fatalf("after delete: want ErrNoSnapshot, got %v", err)
	}
	// Deleting again (absent) is not an error, matching the file store.
	if err := hs.Delete("rt"); err != nil {
		t.Fatal(err)
	}
}

func TestHTTPStoreMissingIsErrNoSnapshot(t *testing.T) {
	hs, _ := newHTTPStore(t)
	if _, err := hs.Load("ghost"); !errors.Is(err, snapshot.ErrNoSnapshot) {
		t.Fatalf("want ErrNoSnapshot, got %v", err)
	}
	if _, err := hs.LoadRaw("ghost"); !os.IsNotExist(err) {
		t.Fatalf("want os.ErrNotExist, got %v", err)
	}
}

// A down service is a load error, not a phantom cold start: the daemon
// counts it separately and still degrades gracefully.
func TestHTTPStoreTransportErrorIsNotErrNoSnapshot(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()
	hs := NewHTTPSnapshotStore(url, &http.Client{Timeout: time.Second})
	if err := hs.Save(clusterSnap("down", 1)); err == nil {
		t.Fatal("save against a dead service should fail")
	}
	_, err := hs.Load("down")
	if err == nil || errors.Is(err, snapshot.ErrNoSnapshot) {
		t.Fatalf("dead service must not masquerade as ErrNoSnapshot: %v", err)
	}
}

// Raw bytes round-trip verbatim — the seam chaos faults ride through.
// A body over snapshot.MaxBytes, which the snapshot service never stores,
// is a load error and not ErrNoSnapshot, whether or not it announces its
// length; the chunked body is never read to its end.
func TestHTTPStoreRefusesOversizeBody(t *testing.T) {
	for _, announce := range []bool{true, false} {
		var served atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			size := snapshot.MaxBytes + 1
			if announce {
				w.Header().Set("Content-Length", strconv.Itoa(size))
			} else {
				size = 4 * snapshot.MaxBytes
			}
			chunk := bytes.Repeat([]byte{' '}, 64<<10)
			for left := size; left > 0; left -= len(chunk) {
				n, err := w.Write(chunk[:min(left, len(chunk))])
				served.Add(int64(n))
				if err != nil {
					return
				}
			}
		}))
		hs := NewHTTPSnapshotStore(srv.URL, srv.Client())
		if buf, err := hs.LoadRaw("big"); err == nil {
			t.Fatalf("announce=%v: LoadRaw returned %d bytes over a %d-byte bound", announce, len(buf), snapshot.MaxBytes)
		}
		if _, err := hs.Load("big"); err == nil || errors.Is(err, snapshot.ErrNoSnapshot) {
			t.Fatalf("announce=%v: oversize body must be a load error, not a cold start: %v", announce, err)
		}
		srv.Close()
		if !announce && served.Load() >= 8*snapshot.MaxBytes {
			t.Fatalf("the client read both %d-byte bodies to the end", 4*snapshot.MaxBytes)
		}
	}
}

func TestHTTPStoreRawRoundTrip(t *testing.T) {
	hs, _ := newHTTPStore(t)
	torn := []byte(`{"version":3,"id":"torn","epo`) // truncated JSON
	if err := hs.SaveRaw("torn", torn); err != nil {
		t.Fatal(err)
	}
	got, err := hs.LoadRaw("torn")
	if err != nil || !bytes.Equal(got, torn) {
		t.Fatalf("raw round trip: %q %v", got, err)
	}
	// And the decode path turns the damage into a cold start.
	if _, err := hs.Load("torn"); !errors.Is(err, snapshot.ErrNoSnapshot) {
		t.Fatalf("torn bytes: want ErrNoSnapshot, got %v", err)
	}
}

// Ids are independent: two ids may hold identical bytes, and deleting one
// leaves the other byte-identical.
func TestSnapServerIDsAreIndependent(t *testing.T) {
	hs, _ := newHTTPStore(t)
	data := []byte("identical bytes")
	if err := hs.SaveRaw("a", data); err != nil {
		t.Fatal(err)
	}
	if err := hs.SaveRaw("b", data); err != nil {
		t.Fatal(err)
	}
	if err := hs.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := hs.LoadRaw("a"); !os.IsNotExist(err) {
		t.Fatalf("deleted id: want os.ErrNotExist, got %v", err)
	}
	if got, err := hs.LoadRaw("b"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("deleting a changed b: %q %v", got, err)
	}
}

// snapGauge scrapes one integer sample from the service's /metrics.
func snapGauge(t *testing.T, url, name string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s sample:\n%s", name, body)
	return 0
}

// The byte gauge is a running total: exact across put, overwrite and
// delete. A bit-flipped blob answers 404 and counts as corrupt, and
// /healthz reports the live snapshot count.
func TestSnapServerAccounting(t *testing.T) {
	ss := NewSnapServer(0, discardLogger())
	srv := httptest.NewServer(ss.Handler())
	t.Cleanup(srv.Close)
	hs := NewHTTPSnapshotStore(srv.URL, srv.Client())

	for _, step := range []struct {
		do   func() error
		want int64
	}{
		{func() error { return hs.SaveRaw("a", make([]byte, 100)) }, 100},
		{func() error { return hs.SaveRaw("b", make([]byte, 30)) }, 130},
		{func() error { return hs.SaveRaw("a", make([]byte, 7)) }, 37},
		{func() error { return hs.Delete("b") }, 7},
		{func() error { return hs.Delete("b") }, 7},
	} {
		if err := step.do(); err != nil {
			t.Fatal(err)
		}
		if got := snapGauge(t, srv.URL, "snapstore_blob_bytes"); got != step.want {
			t.Fatalf("snapstore_blob_bytes = %d, want %d", got, step.want)
		}
	}

	ss.mu.Lock()
	ss.blobs["a"].data[3] ^= 0x08
	ss.mu.Unlock()
	if _, err := hs.LoadRaw("a"); !os.IsNotExist(err) {
		t.Fatalf("bit-flipped blob: want os.ErrNotExist, got %v", err)
	}
	if got := snapGauge(t, srv.URL, "snapstore_corrupt_total"); got != 1 {
		t.Fatalf("snapstore_corrupt_total = %d, want 1", got)
	}
	if got := snapGauge(t, srv.URL, "snapstore_snapshots"); got != 1 {
		t.Fatalf("snapstore_snapshots = %d, want 1", got)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status    string `json:"status"`
		Snapshots int    `json:"snapshots"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Snapshots != 1 {
		t.Fatalf("/healthz = %+v, want ok with 1 snapshot", health)
	}
}

// Server-side rot (stored bytes no longer match the hash recorded at PUT) is
// detected on GET and answered 404 — a cold start, never damaged state.
func TestSnapServerDetectsRot(t *testing.T) {
	hs, ss := newHTTPStore(t)
	if err := hs.SaveRaw("rot", []byte("pristine bytes")); err != nil {
		t.Fatal(err)
	}
	ss.mu.Lock()
	for _, b := range ss.blobs {
		b.data[0] ^= 0x40 // flip a bit in place, behind the hash's back
	}
	ss.mu.Unlock()
	if _, err := hs.LoadRaw("rot"); !os.IsNotExist(err) {
		t.Fatalf("rotted blob: want os.ErrNotExist, got %v", err)
	}
	if _, err := hs.Load("rot"); !errors.Is(err, snapshot.ErrNoSnapshot) {
		t.Fatalf("rotted blob: want ErrNoSnapshot, got %v", err)
	}
}

// --- replicated store ---

func TestReplicatedStoreFreshestWinsAndRepairs(t *testing.T) {
	r1 := snapshot.NewMemoryStore()
	r2 := snapshot.NewMemoryStore()
	r3 := snapshot.NewMemoryStore()
	rs, err := NewReplicatedSnapshotStore(r1, r2, r3)
	if err != nil {
		t.Fatal(err)
	}
	// r1 holds a stale copy, r2 the freshest, r3 nothing.
	if err := r1.Save(clusterSnap("f", 5)); err != nil {
		t.Fatal(err)
	}
	if err := r2.Save(clusterSnap("f", 9)); err != nil {
		t.Fatal(err)
	}
	got, err := rs.Load("f")
	if err != nil || got.Epochs != 9 {
		t.Fatalf("load: %+v %v", got, err)
	}
	// The read repaired both the stale and the empty replica.
	for i, r := range []*snapshot.MemoryStore{r1, r3} {
		cur, err := r.Load("f")
		if err != nil || cur.Epochs != 9 {
			t.Fatalf("replica %d not repaired: %+v %v", i, cur, err)
		}
	}
}

func TestReplicatedStoreSurvivesCorruptMinority(t *testing.T) {
	r1 := snapshot.NewMemoryStore()
	r2 := snapshot.NewMemoryStore()
	rs, err := NewReplicatedSnapshotStore(r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Save(clusterSnap("c", 7)); err != nil {
		t.Fatal(err)
	}
	// Bit-rot replica 1's copy behind the store's back.
	raw, err := r1.LoadRaw("c")
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := r1.SaveRaw("c", raw); err != nil {
		t.Fatal(err)
	}
	got, err := rs.Load("c")
	if err != nil || got.Epochs != 7 {
		t.Fatalf("one intact replica should be enough: %+v %v", got, err)
	}
	// And the rotted replica was healed from the intact one.
	if cur, err := r1.Load("c"); err != nil || cur.Epochs != 7 {
		t.Fatalf("rotted replica not healed: %+v %v", cur, err)
	}
}

func TestReplicatedStoreAllCorruptIsColdStart(t *testing.T) {
	r1 := snapshot.NewMemoryStore()
	r2 := snapshot.NewMemoryStore()
	rs, err := NewReplicatedSnapshotStore(r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*snapshot.MemoryStore{r1, r2} {
		if err := r.SaveRaw("x", []byte("not a snapshot at all")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rs.Load("x"); !errors.Is(err, snapshot.ErrNoSnapshot) {
		t.Fatalf("all-corrupt: want ErrNoSnapshot, got %v", err)
	}
	if _, err := rs.Load("absent"); !errors.Is(err, snapshot.ErrNoSnapshot) {
		t.Fatalf("absent: want ErrNoSnapshot, got %v", err)
	}
}

func TestReplicatedStoreMixedBackends(t *testing.T) {
	// A memory replica beside an HTTP replica: the interface is the seam.
	hs, _ := newHTTPStore(t)
	mem := snapshot.NewMemoryStore()
	rs, err := NewReplicatedSnapshotStore(mem, hs)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Save(clusterSnap("mix", 3)); err != nil {
		t.Fatal(err)
	}
	for _, st := range []snapshot.Store{mem, hs, rs} {
		got, err := st.Load("mix")
		if err != nil || got.Epochs != 3 {
			t.Fatalf("%T: %+v %v", st, got, err)
		}
	}
	if err := rs.Delete("mix"); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Load("mix"); !errors.Is(err, snapshot.ErrNoSnapshot) {
		t.Fatalf("after delete: want ErrNoSnapshot, got %v", err)
	}
}
