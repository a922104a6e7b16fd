package cluster

import (
	"crypto/sha256"
	"encoding/json"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/expo"
	"rebudget/internal/snapshot"
)

// SnapServer is the HTTP snapshot service behind cmd/rebudget-snapstore: a
// blob store keyed by snapshot id that any shard can reach, so warm restore
// stops requiring a shared filesystem. Bytes are opaque to the service —
// the snapshot format (JSON + checksum) belongs to the client side, which
// is exactly what lets the chaos layer's torn-write and bit-rot faults
// pass through to storage and come back out for snapshot.Decode to reject.
//
// Every PUT records the body's SHA-256 and CRC32; every GET re-hashes the
// blob and checks both. A mismatch — storage rot — answers 404, which the
// client maps to ErrNoSnapshot: a cold start, never resurrected damage.
type SnapServer struct {
	log     *slog.Logger
	maxBody int64
	started time.Time

	mu    sync.RWMutex
	blobs map[string]*blob // snapshot id → bytes
	bytes int64            // sum of len(data) over blobs

	puts, gets, deletes, misses, corrupt uint64
}

type blob struct {
	data []byte
	sum  [sha256.Size]byte
	crc  uint32
}

// NewSnapServer builds an empty snapshot service. maxBody <= 0 selects
// snapshot.MaxBytes; logger nil selects slog.Default().
func NewSnapServer(maxBody int64, logger *slog.Logger) *SnapServer {
	if maxBody <= 0 {
		maxBody = snapshot.MaxBytes
	}
	if logger == nil {
		logger = slog.Default()
	}
	return &SnapServer{
		log:     logger,
		maxBody: maxBody,
		started: time.Now(),
		blobs:   make(map[string]*blob),
	}
}

// Handler returns the service's HTTP handler.
func (ss *SnapServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/blobs/{id}", ss.handlePut)
	mux.HandleFunc("GET /v1/blobs/{id}", ss.handleGet)
	mux.HandleFunc("DELETE /v1/blobs/{id}", ss.handleDelete)
	mux.HandleFunc("GET /healthz", ss.handleHealthz)
	mux.HandleFunc("GET /metrics", ss.handleMetrics)
	return mux
}

// Len reports how many snapshots the service holds.
func (ss *SnapServer) Len() int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return len(ss.blobs)
}

func (ss *SnapServer) handlePut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !api.ValidID(id) {
		http.Error(w, "unstorable id", http.StatusBadRequest)
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, ss.maxBody+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if int64(len(data)) > ss.maxBody {
		http.Error(w, "blob too large", http.StatusRequestEntityTooLarge)
		return
	}
	b := &blob{data: data, sum: sha256.Sum256(data), crc: crc32.ChecksumIEEE(data)}
	ss.mu.Lock()
	ss.puts++
	if prev, ok := ss.blobs[id]; ok {
		ss.bytes -= int64(len(prev.data))
	}
	ss.blobs[id] = b
	ss.bytes += int64(len(data))
	ss.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (ss *SnapServer) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ss.mu.Lock()
	ss.gets++
	b, ok := ss.blobs[id]
	if !ok {
		ss.misses++
	}
	ss.mu.Unlock()
	if !ok {
		http.Error(w, "no blob", http.StatusNotFound)
		return
	}
	if sha256.Sum256(b.data) != b.sum || crc32.ChecksumIEEE(b.data) != b.crc {
		ss.mu.Lock()
		ss.corrupt++
		ss.mu.Unlock()
		ss.log.Warn("blob failed integrity check", "id", id)
		http.Error(w, "blob corrupt", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(b.data)
}

func (ss *SnapServer) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ss.mu.Lock()
	ss.deletes++
	if b, ok := ss.blobs[id]; ok {
		delete(ss.blobs, id)
		ss.bytes -= int64(len(b.data))
	}
	ss.mu.Unlock()
	// Deleting an absent snapshot is not an error, matching the file store.
	w.WriteHeader(http.StatusNoContent)
}

func (ss *SnapServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	n := ss.Len()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":         "ok",
		"snapshots":      n,
		"uptime_seconds": int64(time.Since(ss.started).Seconds()),
	})
}

func (ss *SnapServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e := expo.Acquire(w)
	defer e.Release()
	// Integer samples: blob_bytes in %g notation would be harder to read.
	sample := func(name, help, typ string, v int64) {
		e.Header(name, help, typ)
		e.Int(name, v)
	}
	sample("snapstore_puts_total", "Blob PUTs accepted.", "counter", int64(ss.puts))
	sample("snapstore_gets_total", "Blob GETs received.", "counter", int64(ss.gets))
	sample("snapstore_deletes_total", "Blob DELETEs received.", "counter", int64(ss.deletes))
	sample("snapstore_misses_total", "GETs for an id the store does not hold.", "counter", int64(ss.misses))
	sample("snapstore_corrupt_total", "GETs refused because the stored blob failed its integrity check.", "counter", int64(ss.corrupt))
	sample("snapstore_snapshots", "Snapshots held.", "gauge", int64(len(ss.blobs)))
	sample("snapstore_blob_bytes", "Bytes held across all snapshots.", "gauge", ss.bytes)
}
