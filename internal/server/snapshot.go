package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// SnapshotVersion is the wire-format version stamped into every snapshot
// and the only one accepted on load: an integrity checksum over the body
// and the session's tenant label in the spec (so a rehydrated session lands
// back under its tenant's budget). Any other version is rejected (treated
// as "no snapshot", a cold start) rather than guessed at.
const SnapshotVersion = 3

// ErrNoSnapshot reports that a store holds no usable snapshot for an id —
// either nothing was ever saved, or what is there is corrupt, truncated, or
// from an incompatible version. Callers degrade to a cold start.
var ErrNoSnapshot = errors.New("no snapshot")

// SessionSnapshot is the durable state of one session: enough to rebuild
// the engine from its spec and resume warm, not a byte image of the engine.
// Market sessions carry their final bid matrix plus the telemetry-adjusted
// demand/weight vectors, so the first post-restore epoch re-converges via
// market.FindEquilibriumFrom instead of a cold solve. Sim sessions carry a
// context-switch journal and replay their (deterministic, seeded) epochs,
// which reconstructs chip state — including the degradation FSM — exactly.
type SessionSnapshot struct {
	Version int         `json:"version"`
	ID      string      `json:"id"`
	Spec    SessionSpec `json:"spec"`
	Epochs  int64       `json:"epochs"`
	Health  string      `json:"health"`
	SavedAt time.Time   `json:"saved_at"`

	// EpochCost is the session's admission-cost estimate (cost units per
	// epoch) at save time, so a rehydrated session is priced from its
	// measured history instead of the analytic prior. Absent (0) in
	// snapshots written before cost-based admission; the prior then seeds
	// it as for a fresh session.
	EpochCost float64 `json:"epoch_cost,omitempty"`

	// Checksum is a CRC32 (IEEE) over the snapshot's canonical JSON with
	// this field empty, formatted "crc32:%08x". Loads require and verify
	// it, so a bit-flipped or hand-edited file that still parses as JSON
	// deterministically lands on ErrNoSnapshot (a cold start) instead of
	// resurrecting damaged state.
	Checksum string `json:"checksum,omitempty"`

	Market *MarketSnapshot `json:"market,omitempty"`
	Sim    *SimSnapshot    `json:"sim,omitempty"`
}

// MarketSnapshot is the market engine's durable state.
type MarketSnapshot struct {
	// WarmBids is the final equilibrium bid matrix (player × resource);
	// nil when the session ran cold-start epochs or never stepped.
	WarmBids [][]float64 `json:"warm_bids,omitempty"`
	// Demand and Weights are the telemetry-adjusted per-player state.
	Demand  []float64 `json:"demand,omitempty"`
	Weights []float64 `json:"weights,omitempty"`
}

// SimSnapshot is the sim engine's durable state: the measured epoch count
// plus the context-switch journal needed to replay it bit-identically.
type SimSnapshot struct {
	Epochs   int           `json:"epochs"`
	Switches []SwitchEvent `json:"switches,omitempty"`
}

// SwitchEvent records one applied context switch: which app landed on which
// core once AfterEpoch measured epochs had been stepped.
type SwitchEvent struct {
	AfterEpoch int    `json:"after_epoch"`
	Core       int    `json:"core"`
	App        string `json:"app"`
}

func (s *SessionSnapshot) validate() error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("snapshot version %d (want %d)", s.Version, SnapshotVersion)
	}
	if s.ID == "" {
		return errors.New("snapshot missing id")
	}
	if s.Epochs < 0 {
		return fmt.Errorf("snapshot epochs %d < 0", s.Epochs)
	}
	return nil
}

// checksum computes the snapshot's integrity sum: CRC32 (IEEE) over the
// canonical indented JSON with the Checksum field cleared. The encoding is
// deterministic (struct-ordered fields, fixed indentation), so the sum
// computed at save time reproduces exactly at load time.
func (s *SessionSnapshot) checksum() (string, error) {
	c := *s
	c.Checksum = ""
	buf, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("crc32:%08x", crc32.ChecksumIEEE(buf)), nil
}

// verifyChecksum recomputes the sum and compares. A missing checksum fails
// like a wrong one: damage to the field's key must not switch the check off.
func (s *SessionSnapshot) verifyChecksum() error {
	want, err := s.checksum()
	if err != nil {
		return err
	}
	if s.Checksum != want {
		return fmt.Errorf("checksum %q, recomputed %s", s.Checksum, want)
	}
	return nil
}

// EncodeSnapshot validates a snapshot, stamps its integrity checksum and
// returns the canonical wire bytes every SnapshotStore backend persists.
// Factoring the encoding out of FileSnapshotStore is what makes backends
// pluggable: the file store, the in-memory store, the HTTP snapshot service
// and the replicated store (internal/cluster) all store these exact bytes,
// so a snapshot written by one restores through any other.
func EncodeSnapshot(snap *SessionSnapshot) ([]byte, error) {
	if err := snap.validate(); err != nil {
		return nil, err
	}
	c := *snap
	sum, err := c.checksum()
	if err != nil {
		return nil, err
	}
	c.Checksum = sum
	return json.MarshalIndent(&c, "", "  ")
}

// DecodeSnapshot parses stored snapshot bytes for id, enforcing the full
// load contract shared by every backend: undecodable, truncated, checksum-
// failing, wrong-version or mis-filed bytes all come back as ErrNoSnapshot
// (wrapped with detail) so corruption degrades to a cold start — never a
// panic, never a serving error.
func DecodeSnapshot(id string, data []byte) (*SessionSnapshot, error) {
	var snap SessionSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%w: snapshot %q undecodable: %v", ErrNoSnapshot, id, err)
	}
	if err := snap.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoSnapshot, err)
	}
	if err := snap.verifyChecksum(); err != nil {
		return nil, fmt.Errorf("%w: snapshot %q corrupt: %v", ErrNoSnapshot, id, err)
	}
	if snap.ID != id {
		return nil, fmt.Errorf("%w: entry for %q holds snapshot of %q", ErrNoSnapshot, id, snap.ID)
	}
	return &snap, nil
}

// SnapshotStore persists session snapshots across evictions, restarts and
// cross-shard migrations. Implementations must be safe for concurrent use;
// Load returns ErrNoSnapshot for absent or unusable entries.
type SnapshotStore interface {
	Save(snap *SessionSnapshot) error
	Load(id string) (*SessionSnapshot, error)
	Delete(id string) error
}

// RawSnapshotStore is the byte-level seam under a SnapshotStore: direct
// access to a snapshot's stored representation, bypassing validation and
// checksumming. It exists for the chaos layer (internal/chaos), which uses
// it to model torn writes and storage bit rot against the real stored
// bytes. FileSnapshotStore, MemorySnapshotStore and
// cluster.HTTPSnapshotStore implement it.
type RawSnapshotStore interface {
	SnapshotStore
	// SaveRaw stores data verbatim as id's snapshot (atomically, like Save).
	SaveRaw(id string, data []byte) error
	// LoadRaw returns id's stored bytes verbatim; os.ErrNotExist when absent.
	LoadRaw(id string) ([]byte, error)
}

// FileSnapshotStore keeps one JSON file per session under a directory —
// the simple durable backend, and (via a shared directory) the migration
// channel between shards. Writes are atomic and durable (temp file, fsync,
// rename, best-effort directory fsync) so a crash — or a power loss — mid-
// save leaves the previous snapshot intact rather than a torn file; loads
// treat any undecodable, checksum-failing or wrong-version file as
// ErrNoSnapshot so corruption degrades to a cold start instead of a
// serving error.
type FileSnapshotStore struct {
	dir string
}

// NewFileSnapshotStore creates the directory (if needed) and returns the
// store rooted there.
func NewFileSnapshotStore(dir string) (*FileSnapshotStore, error) {
	if dir == "" {
		return nil, errors.New("snapshot dir must be non-empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot dir: %w", err)
	}
	return &FileSnapshotStore{dir: dir}, nil
}

// path maps a session id onto its snapshot file. Session ids are already
// constrained to [A-Za-z0-9_-] by SessionSpec validation (and the server's
// generated ids), so they are safe as file names; anything else is refused
// defensively.
func (fs *FileSnapshotStore) path(id string) (string, error) {
	if !idPattern.MatchString(id) {
		return "", fmt.Errorf("snapshot id %q not storable", id)
	}
	return filepath.Join(fs.dir, id+".json"), nil
}

// Save implements SnapshotStore: the snapshot is checksummed and written
// with an atomic, durable temp-file + fsync + rename.
func (fs *FileSnapshotStore) Save(snap *SessionSnapshot) error {
	buf, err := EncodeSnapshot(snap)
	if err != nil {
		return err
	}
	return fs.writeAtomic(snap.ID, buf)
}

// writeAtomic lands data under id's path via temp file + fsync + rename,
// then best-effort fsyncs the directory so the rename itself survives power
// loss. The "atomic" half (rename) protects against a crashed process; the
// fsyncs protect against the machine dying with the page cache unflushed.
func (fs *FileSnapshotStore) writeAtomic(id string, data []byte) error {
	path, err := fs.path(id)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(fs.dir, "."+id+".tmp-")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if dir, err := os.Open(fs.dir); err == nil {
		// Directory fsync is what makes the rename durable; not every
		// filesystem supports it, so failure is ignored, not fatal.
		_ = dir.Sync()
		_ = dir.Close()
	}
	return nil
}

// SaveRaw implements RawSnapshotStore: data lands verbatim (atomically and
// durably) as id's snapshot file, with no validation or checksumming — the
// chaos layer's torn-write and bit-rot channel.
func (fs *FileSnapshotStore) SaveRaw(id string, data []byte) error {
	return fs.writeAtomic(id, data)
}

// LoadRaw implements RawSnapshotStore.
func (fs *FileSnapshotStore) LoadRaw(id string) ([]byte, error) {
	path, err := fs.path(id)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// Load implements SnapshotStore. Absent, truncated, corrupt, checksum-
// failing or wrong-version files all come back as ErrNoSnapshot: the
// rehydrate path must never be worse than a cold start.
func (fs *FileSnapshotStore) Load(id string) (*SessionSnapshot, error) {
	path, err := fs.path(id)
	if err != nil {
		return nil, ErrNoSnapshot
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, ErrNoSnapshot
	}
	return DecodeSnapshot(id, buf)
}

// Delete implements SnapshotStore; deleting an absent snapshot is not an
// error.
func (fs *FileSnapshotStore) Delete(id string) error {
	path, err := fs.path(id)
	if err != nil {
		return nil
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}
