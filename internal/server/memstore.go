package server

import (
	"errors"
	"os"
	"sync"
)

// MemorySnapshotStore keeps snapshots in process memory — no durability
// across a process death, but the full SnapshotStore contract otherwise.
// It is the replica primitive under cluster.ReplicatedSnapshotStore (N
// in-memory copies across nodes stand in for shared disk) and the default
// backing of the HTTP snapshot service. It implements RawSnapshotStore, so
// the chaos layer's torn-write and bit-rot faults exercise it exactly like
// the file store.
type MemorySnapshotStore struct {
	mu    sync.RWMutex
	blobs map[string][]byte
}

// NewMemorySnapshotStore returns an empty in-memory store.
func NewMemorySnapshotStore() *MemorySnapshotStore {
	return &MemorySnapshotStore{blobs: make(map[string][]byte)}
}

// Save implements SnapshotStore.
func (ms *MemorySnapshotStore) Save(snap *SessionSnapshot) error {
	buf, err := EncodeSnapshot(snap)
	if err != nil {
		return err
	}
	return ms.SaveRaw(snap.ID, buf)
}

// Load implements SnapshotStore.
func (ms *MemorySnapshotStore) Load(id string) (*SessionSnapshot, error) {
	buf, err := ms.LoadRaw(id)
	if err != nil {
		return nil, ErrNoSnapshot
	}
	return DecodeSnapshot(id, buf)
}

// Delete implements SnapshotStore; deleting an absent snapshot is not an
// error.
func (ms *MemorySnapshotStore) Delete(id string) error {
	ms.mu.Lock()
	delete(ms.blobs, id)
	ms.mu.Unlock()
	return nil
}

// SaveRaw implements RawSnapshotStore: data is copied, so later mutation of
// the caller's buffer cannot corrupt the stored snapshot.
func (ms *MemorySnapshotStore) SaveRaw(id string, data []byte) error {
	if !idPattern.MatchString(id) {
		return errors.New("snapshot id " + id + " not storable")
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	ms.mu.Lock()
	ms.blobs[id] = cp
	ms.mu.Unlock()
	return nil
}

// LoadRaw implements RawSnapshotStore; the returned bytes are a copy for
// the same reason SaveRaw copies.
func (ms *MemorySnapshotStore) LoadRaw(id string) ([]byte, error) {
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
