package server

// This file keeps the spellings that the frozen benchmark module (bench/)
// uses for the wire types and the snapshot format, which now live in
// internal/api and internal/snapshot. Nothing in this module uses them; the
// lint (internal/lint) fails if anything does. ROADMAP item 5a, which
// re-bases bench/, deletes the file.
//
// The types are aliases (=), not defined types: a defined type would drop
// api.SessionView's one-pass UnmarshalJSON, and bench/'s json.Unmarshal
// into a view would fall back to reflection.

import (
	"rebudget/internal/api"
	"rebudget/internal/snapshot"
)

// Deprecated: spell the api and snapshot names; item 5a deletes these.
type (
	SessionSpec         = api.SessionSpec
	SessionView         = api.SessionView
	WorkloadSpec        = api.WorkloadSpec
	TelemetrySpec       = api.TelemetrySpec
	PlayerTelemetry     = api.PlayerTelemetry
	SessionSnapshot     = snapshot.Session
	MarketSnapshot      = snapshot.Market
	SnapshotStore       = snapshot.Store
	MemorySnapshotStore = snapshot.MemoryStore
)

// Deprecated: use snapshot.Version.
const SnapshotVersion = snapshot.Version

// Deprecated: use snapshot.Decode.
func DecodeSnapshot(id string, data []byte) (*snapshot.Session, error) {
	return snapshot.Decode(id, data)
}

// Deprecated: use snapshot.Encode.
func EncodeSnapshot(snap *snapshot.Session) ([]byte, error) { return snapshot.Encode(snap) }

// Deprecated: use snapshot.NewMemoryStore.
func NewMemorySnapshotStore() *snapshot.MemoryStore { return snapshot.NewMemoryStore() }

// Deprecated: use snapshot.NewFileStore.
func NewFileSnapshotStore(dir string) (*snapshot.FileStore, error) { return snapshot.NewFileStore(dir) }
