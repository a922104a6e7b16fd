package cluster

import (
	"errors"
	"fmt"

	"rebudget/internal/server"
)

// ReplicatedSnapshotStore fans one SnapshotStore contract out over N
// replicas (typically MemorySnapshotStores on different nodes, or a mix of
// HTTP stores): writes go to every replica, reads return the freshest copy
// any replica holds and repair the rest. One intact replica is enough to
// restore warm — corrupt or torn copies elsewhere degrade to that replica's
// answer, not to a cold start, and a fleet-wide wipe is the only way to
// lose a snapshot.
//
// Freshness is the snapshot's own (Epochs, SavedAt) — monotone per session,
// so the replica that saw the most recent retire wins and a stale replica
// can never roll a session backwards.
type ReplicatedSnapshotStore struct {
	replicas []server.SnapshotStore
}

// NewReplicatedSnapshotStore builds a store over the given replicas (at
// least one required).
func NewReplicatedSnapshotStore(replicas ...server.SnapshotStore) (*ReplicatedSnapshotStore, error) {
	if len(replicas) == 0 {
		return nil, errors.New("replicated snapshot store: at least one replica required")
	}
	for _, r := range replicas {
		if r == nil {
			return nil, errors.New("replicated snapshot store: nil replica")
		}
	}
	return &ReplicatedSnapshotStore{replicas: replicas}, nil
}

// Save implements SnapshotStore: the write fans out to every replica and
// succeeds while at least one replica accepted it — a down replica costs
// redundancy, not the snapshot. All-replicas-failed is the only error.
func (rs *ReplicatedSnapshotStore) Save(snap *server.SessionSnapshot) error {
	var firstErr error
	ok := 0
	for _, r := range rs.replicas {
		if err := r.Save(snap); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ok++
	}
	if ok == 0 {
		return fmt.Errorf("replicated snapshot store: all %d replicas failed: %w", len(rs.replicas), firstErr)
	}
	return nil
}

// Load implements SnapshotStore: every replica is consulted, the freshest
// usable snapshot wins, and replicas holding nothing or something staler
// are repaired with it (self-heal — the read path is also the anti-entropy
// path). ErrNoSnapshot only when no replica holds a usable copy.
func (rs *ReplicatedSnapshotStore) Load(id string) (*server.SessionSnapshot, error) {
	var best *server.SessionSnapshot
	var loadErr error
	for _, r := range rs.replicas {
		snap, err := r.Load(id)
		if err != nil {
			if !errors.Is(err, server.ErrNoSnapshot) && loadErr == nil {
				loadErr = err
			}
			continue
		}
		if best == nil || fresher(snap, best) {
			best = snap
		}
	}
	if best == nil {
		if loadErr != nil {
			return nil, fmt.Errorf("replicated snapshot store: %w", loadErr)
		}
		return nil, server.ErrNoSnapshot
	}
	// Repair: re-save the winner everywhere it is missing, unusable, or
	// stale. Best-effort — a replica that rejects the repair stays stale
	// and is repaired again on the next load.
	for _, r := range rs.replicas {
		cur, err := r.Load(id)
		if err == nil && !fresher(best, cur) {
			continue
		}
		_ = r.Save(best)
	}
	return best, nil
}

// Delete implements SnapshotStore: fan-out, tolerating individual replica
// failures the same way Save does.
func (rs *ReplicatedSnapshotStore) Delete(id string) error {
	var firstErr error
	ok := 0
	for _, r := range rs.replicas {
		if err := r.Delete(id); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ok++
	}
	if ok == 0 {
		return fmt.Errorf("replicated snapshot store: all %d replicas failed: %w", len(rs.replicas), firstErr)
	}
	return nil
}

// fresher reports whether a should be preferred over b: more served epochs
// first, later save time as the tie-break.
func fresher(a, b *server.SessionSnapshot) bool {
	if a.Epochs != b.Epochs {
		return a.Epochs > b.Epochs
	}
	return a.SavedAt.After(b.SavedAt)
}
