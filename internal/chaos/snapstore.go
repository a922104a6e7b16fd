package chaos

import (
	"fmt"

	"rebudget/internal/snapshot"
)

// FaultySnapshotStore wraps a snapshot.RawStore with seeded disk faults: EIO
// on save, torn (truncated) writes, and bit rot surfacing on load. Torn
// writes and bit rot go through the inner store's byte-level seam, so they
// corrupt the real stored bytes and the wrapped store's own integrity
// machinery — checksums, JSON parsing — is what has to catch them.
type FaultySnapshotStore struct {
	inner snapshot.RawStore
	inj   *Injector
}

// NewFaultySnapshotStore wraps inner with the injector's disk faults. A
// nil injector yields a transparent passthrough.
func NewFaultySnapshotStore(inner snapshot.RawStore, inj *Injector) *FaultySnapshotStore {
	return &FaultySnapshotStore{inner: inner, inj: inj}
}

// Save implements snapshot.Store. An EIO fault fails the save
// without touching the disk; a torn-write fault lets the save land, then
// truncates the stored bytes mid-file — the state a power loss between
// write and fsync leaves behind.
func (f *FaultySnapshotStore) Save(snap *snapshot.Session) error {
	p := f.inj.planSave(snap.ID)
	if p.eio {
		return fmt.Errorf("%w: saving %q", ErrInjectedIO, snap.ID)
	}
	if err := f.inner.Save(snap); err != nil {
		return err
	}
	if p.torn {
		if err := f.tear(snap.ID, p.tornAt); err != nil {
			return fmt.Errorf("chaos: tearing %q: %w", snap.ID, err)
		}
	}
	return nil
}

// tear truncates id's stored bytes at fraction frac.
func (f *FaultySnapshotStore) tear(id string, frac float64) error {
	buf, err := f.inner.LoadRaw(id)
	if err != nil {
		return err
	}
	cut := int(float64(len(buf)) * frac)
	if cut >= len(buf) {
		cut = len(buf) - 1
	}
	if cut < 1 {
		cut = 1
	}
	return f.inner.SaveRaw(id, buf[:cut])
}

// Load implements snapshot.Store. A corrupt fault flips one stored
// bit before delegating, so the inner store's checksum verification is
// what turns the rot into ErrNoSnapshot.
func (f *FaultySnapshotStore) Load(id string) (*snapshot.Session, error) {
	if corrupt, draw := f.inj.planLoad(id); corrupt {
		// Best-effort: an absent file has no bits to rot.
		_ = f.corruptRaw(id, draw)
	}
	return f.inner.Load(id)
}

// Delete implements snapshot.Store (passthrough).
func (f *FaultySnapshotStore) Delete(id string) error { return f.inner.Delete(id) }

// CorruptNow deterministically flips one bit of id's stored snapshot,
// regardless of fault rates — the scripted "snapshot corruption" event of
// a chaos schedule. draw seeds the bit choice.
func (f *FaultySnapshotStore) CorruptNow(id string, draw uint64) error {
	return f.corruptRaw(id, draw)
}

// corruptRaw flips the low bit of a draw-chosen digit byte (falling back
// to any byte), turning one stored numeral into another — valid JSON,
// wrong data, exactly what only a checksum can catch.
func (f *FaultySnapshotStore) corruptRaw(id string, draw uint64) error {
	buf, err := f.inner.LoadRaw(id)
	if err != nil {
		return err
	}
	if len(buf) == 0 {
		return fmt.Errorf("chaos: snapshot %q empty", id)
	}
	start := int(draw % uint64(len(buf)))
	idx := start
	for i := 0; i < len(buf); i++ {
		j := (start + i) % len(buf)
		if buf[j] >= '1' && buf[j] <= '8' {
			idx = j
			break
		}
	}
	buf[idx] ^= 1
	return f.inner.SaveRaw(id, buf)
}
