package snapshot

import (
	"errors"
	"os"
	"sync"

	"rebudget/internal/api"
)

// MemoryStore keeps snapshots in process memory — no durability across a
// process death, but the full Store contract otherwise.
// It is the replica primitive under cluster.ReplicatedSnapshotStore (N
// in-memory copies across nodes stand in for shared disk) and the default
// backing of the HTTP snapshot service. It implements RawStore, so
// the chaos layer's torn-write and bit-rot faults exercise it exactly like
// the file store.
type MemoryStore struct {
	mu    sync.RWMutex
	blobs map[string][]byte
}

// NewMemoryStore returns an empty in-memory store.
func NewMemoryStore() *MemoryStore {
	return &MemoryStore{blobs: make(map[string][]byte)}
}

// Save implements Store.
func (ms *MemoryStore) Save(snap *Session) error {
	buf, err := Encode(snap)
	if err != nil {
		return err
	}
	return ms.SaveRaw(snap.ID, buf)
}

// Load implements Store.
func (ms *MemoryStore) Load(id string) (*Session, error) {
	buf, err := ms.LoadRaw(id)
	if err != nil {
		return nil, ErrNoSnapshot
	}
	return Decode(id, buf)
}

// Delete implements Store; deleting an absent snapshot is not an
// error.
func (ms *MemoryStore) Delete(id string) error {
	ms.mu.Lock()
	delete(ms.blobs, id)
	ms.mu.Unlock()
	return nil
}

// SaveRaw implements RawStore: data is copied, so later mutation of
// the caller's buffer cannot corrupt the stored snapshot.
func (ms *MemoryStore) SaveRaw(id string, data []byte) error {
	if !api.ValidID(id) {
		return errors.New("snapshot id " + id + " not storable")
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	ms.mu.Lock()
	ms.blobs[id] = cp
	ms.mu.Unlock()
	return nil
}

// LoadRaw implements RawStore; the returned bytes are a copy for
// the same reason SaveRaw copies.
func (ms *MemoryStore) LoadRaw(id string) ([]byte, error) {
	ms.mu.RLock()
	buf, ok := ms.blobs[id]
	ms.mu.RUnlock()
	if !ok {
		return nil, os.ErrNotExist
	}
	cp := make([]byte, len(buf))
	copy(cp, buf)
	return cp, nil
}
