package snapshot

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"rebudget/internal/api"
)

// Store persists session snapshots across evictions, restarts and
// cross-shard migrations. Implementations must be safe for concurrent use;
// Load returns ErrNoSnapshot for absent or unusable entries.
type Store interface {
	Save(snap *Session) error
	Load(id string) (*Session, error)
	Delete(id string) error
}

// RawStore is the byte-level seam under a Store: direct
// access to a snapshot's stored representation, bypassing validation and
// checksumming. It exists for the chaos layer (internal/chaos), which uses
// it to model torn writes and storage bit rot against the real stored
// bytes. FileStore, MemoryStore and cluster.HTTPSnapshotStore implement
// it.
type RawStore interface {
	Store
	// SaveRaw stores data verbatim as id's snapshot (atomically, like Save).
	SaveRaw(id string, data []byte) error
	// LoadRaw returns id's stored bytes verbatim; os.ErrNotExist when absent.
	LoadRaw(id string) ([]byte, error)
}

// FileStore keeps one JSON file per session under a directory —
// the simple durable backend, and (via a shared directory) the migration
// channel between shards. Writes are atomic and durable (temp file, fsync,
// rename, best-effort directory fsync) so a crash — or a power loss — mid-
// save leaves the previous snapshot intact rather than a torn file; loads
// treat any undecodable, checksum-failing or wrong-version file as
// ErrNoSnapshot so corruption degrades to a cold start instead of a
// serving error.
type FileStore struct {
	dir string
}

// NewFileStore creates the directory (if needed) and returns the
// store rooted there.
func NewFileStore(dir string) (*FileStore, error) {
	if dir == "" {
		return nil, errors.New("snapshot dir must be non-empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot dir: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// path maps a session id onto its snapshot file. Session ids are already
// constrained to api.IDPattern by the daemon's spec validation (and the
// server's generated ids), so they are safe as file names; anything else
// is refused defensively.
func (fs *FileStore) path(id string) (string, error) {
	if !api.ValidID(id) {
		return "", fmt.Errorf("snapshot id %q not storable", id)
	}
	return filepath.Join(fs.dir, id+".json"), nil
}

// Save implements Store: the snapshot is checksummed and written
// with an atomic, durable temp-file + fsync + rename.
func (fs *FileStore) Save(snap *Session) error {
	buf, err := Encode(snap)
	if err != nil {
		return err
	}
	return fs.writeAtomic(snap.ID, buf)
}

// writeAtomic lands data under id's path via temp file + fsync + rename,
// then best-effort fsyncs the directory so the rename itself survives power
// loss. The "atomic" half (rename) protects against a crashed process; the
// fsyncs protect against the machine dying with the page cache unflushed.
func (fs *FileStore) writeAtomic(id string, data []byte) error {
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

// SaveRaw implements RawStore: data lands verbatim (atomically and
// durably) as id's snapshot file, with no validation or checksumming — the
// chaos layer's torn-write and bit-rot channel.
func (fs *FileStore) SaveRaw(id string, data []byte) error {
	return fs.writeAtomic(id, data)
}

// LoadRaw implements RawStore.
func (fs *FileStore) LoadRaw(id string) ([]byte, error) {
	path, err := fs.path(id)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// Load implements Store. Absent, truncated, corrupt, checksum-
// failing or wrong-version files all come back as ErrNoSnapshot: the
// rehydrate path must never be worse than a cold start.
func (fs *FileStore) Load(id string) (*Session, error) {
	path, err := fs.path(id)
	if err != nil {
		return nil, ErrNoSnapshot
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, ErrNoSnapshot
	}
	return Decode(id, buf)
}

// Delete implements Store; deleting an absent snapshot is not an
// error.
func (fs *FileStore) Delete(id string) error {
	path, err := fs.path(id)
	if err != nil {
		return nil
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}
