package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"sync"
	"time"

	"rebudget/internal/expo"
)

// SnapServer is the HTTP snapshot service behind cmd/rebudget-snapstore: a
// content-addressed blob store any shard can reach, so warm restore stops
// requiring a shared filesystem. Bytes are opaque to the service — the
// snapshot format (JSON + checksum) belongs to the client side, which is
// exactly what lets the chaos layer's torn-write and bit-rot faults pass
// through to storage and come back out for DecodeSnapshot to reject.
//
// Content addressing: each PUT body is stored once under its SHA-256 and
// an id → address index entry points at it, so N sessions snapshotting
// identical state (common right after a fleet-wide warm start) share one
// blob. Every GET re-hashes the blob and CRC-checks it against the values
// recorded at PUT; a mismatch — storage rot — answers 404, which the
// client maps to ErrNoSnapshot: a cold start, never resurrected damage.
type SnapServer struct {
	log     *slog.Logger
	maxBody int64
	started time.Time

	mu    sync.RWMutex
	index map[string]string // snapshot id → content address
	blobs map[string]*blob  // content address → bytes

	puts, gets, deletes, misses, corrupt, dedups uint64
}

type blob struct {
	data []byte
	crc  uint32
	refs int
}

// snapIDPattern mirrors the daemon's session-id discipline: addresses in
// the store namespace stay shell- and URL-safe.
var snapIDPattern = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// NewSnapServer builds an empty snapshot service. maxBody <= 0 selects
// 4 MiB (snapshots are bounded JSON, but sim journals can be long);
// logger nil selects slog.Default().
func NewSnapServer(maxBody int64, logger *slog.Logger) *SnapServer {
	if maxBody <= 0 {
		maxBody = 4 << 20
	}
	if logger == nil {
		logger = slog.Default()
	}
	return &SnapServer{
		log:     logger,
		maxBody: maxBody,
		started: time.Now(),
		index:   make(map[string]string),
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

// Len reports how many snapshot ids the index holds (tests, /healthz).
func (ss *SnapServer) Len() int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return len(ss.index)
}

func (ss *SnapServer) handlePut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !snapIDPattern.MatchString(id) {
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
	sum := sha256.Sum256(data)
	addr := hex.EncodeToString(sum[:])
	crc := crc32.ChecksumIEEE(data)
	ss.mu.Lock()
	ss.puts++
	if prev, ok := ss.index[id]; ok && prev != addr {
		ss.unrefLocked(prev)
	}
	if b, ok := ss.blobs[addr]; ok {
		if prev, had := ss.index[id]; !had || prev != addr {
			b.refs++
			ss.dedups++
		}
	} else {
		ss.blobs[addr] = &blob{data: data, crc: crc, refs: 1}
	}
	ss.index[id] = addr
	ss.mu.Unlock()
	w.Header().Set("X-Content-Address", addr)
	w.WriteHeader(http.StatusNoContent)
}

func (ss *SnapServer) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ss.mu.Lock()
	ss.gets++
	addr, ok := ss.index[id]
	var b *blob
	if ok {
		b = ss.blobs[addr]
	}
	if !ok || b == nil {
		ss.misses++
		ss.mu.Unlock()
		http.Error(w, "no blob", http.StatusNotFound)
		return
	}
	data := b.data
	wantCRC := b.crc
	ss.mu.Unlock()
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != addr || crc32.ChecksumIEEE(data) != wantCRC {
		ss.mu.Lock()
		ss.corrupt++
		ss.mu.Unlock()
		ss.log.Warn("blob failed integrity check", "id", id, "addr", addr)
		http.Error(w, "blob corrupt", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Content-Address", addr)
	_, _ = w.Write(data)
}

func (ss *SnapServer) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ss.mu.Lock()
	ss.deletes++
	if addr, ok := ss.index[id]; ok {
		delete(ss.index, id)
		ss.unrefLocked(addr)
	}
	ss.mu.Unlock()
	// Deleting an absent snapshot is not an error, matching the file store.
	w.WriteHeader(http.StatusNoContent)
}

func (ss *SnapServer) unrefLocked(addr string) {
	if b, ok := ss.blobs[addr]; ok {
		b.refs--
		if b.refs <= 0 {
			delete(ss.blobs, addr)
		}
	}
}

func (ss *SnapServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ss.mu.RLock()
	n, uniq := len(ss.index), len(ss.blobs)
	ss.mu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":         "ok",
		"snapshots":      n,
		"unique_blobs":   uniq,
		"uptime_seconds": int64(time.Since(ss.started).Seconds()),
	})
}

func (ss *SnapServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	var bytes int
	for _, b := range ss.blobs {
		bytes += len(b.data)
	}
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
	sample("snapstore_misses_total", "GETs for an id the index does not hold.", "counter", int64(ss.misses))
	sample("snapstore_corrupt_total", "GETs refused because the stored blob failed its integrity check.", "counter", int64(ss.corrupt))
	sample("snapstore_dedup_hits_total", "PUTs whose content was already stored under another id.", "counter", int64(ss.dedups))
	sample("snapstore_snapshots", "Snapshot ids in the index.", "gauge", int64(len(ss.index)))
	sample("snapstore_blob_bytes", "Bytes held across unique blobs.", "gauge", int64(bytes))
}
