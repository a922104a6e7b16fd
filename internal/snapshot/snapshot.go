// Package snapshot is the durable format of a serving session: the
// snapshot a daemon saves when it evicts, drains or migrates a session and
// rehydrates it from, the codec every backend stores (canonical JSON with a
// CRC32 checksum), the Store contract, and the file and memory backends.
// It depends on the wire contract (internal/api) and nothing else of the
// module, so the snapshot service and the cluster's remote stores link no
// engine.
package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"rebudget/internal/api"
)

// Version is the wire-format version stamped into every snapshot
// and the only one accepted on load: an integrity checksum over the body
// and the session's tenant label in the spec (so a rehydrated session lands
// back under its tenant's budget). Any other version is rejected (treated
// as "no snapshot", a cold start) rather than guessed at.
const Version = 3

// ErrNoSnapshot reports that a store holds no usable snapshot for an id —
// either nothing was ever saved, or what is there is corrupt, truncated, or
// from an incompatible version. Callers degrade to a cold start.
var ErrNoSnapshot = errors.New("no snapshot")

// MaxBytes bounds one stored snapshot: the snapshot service refuses a
// larger PUT by default, and a remote store refuses to read a larger body.
// Snapshots are bounded JSON, but a sim session's switch journal can be
// long.
const MaxBytes = 4 << 20

// Session is the durable state of one session: enough to rebuild
// the engine from its spec and resume warm, not a byte image of the engine.
// Market sessions carry their final bid matrix plus the telemetry-adjusted
// demand/weight vectors, so the first post-restore epoch re-converges via
// market.FindEquilibriumFrom instead of a cold solve. Sim sessions carry a
// context-switch journal and replay their (deterministic, seeded) epochs,
// which reconstructs chip state — including the degradation FSM — exactly.
type Session struct {
	Version int             `json:"version"`
	ID      string          `json:"id"`
	Spec    api.SessionSpec `json:"spec"`
	Epochs  int64           `json:"epochs"`
	Health  string          `json:"health"`
	SavedAt time.Time       `json:"saved_at"`

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

	Market *Market `json:"market,omitempty"`
	Sim    *Sim    `json:"sim,omitempty"`
}

// Market is the market engine's durable state.
type Market struct {
	// WarmBids is the final equilibrium bid matrix (player × resource);
	// nil when the session ran cold-start epochs or never stepped.
	WarmBids [][]float64 `json:"warm_bids,omitempty"`
	// Demand and Weights are the telemetry-adjusted per-player state.
	Demand  []float64 `json:"demand,omitempty"`
	Weights []float64 `json:"weights,omitempty"`
}

// Sim is the sim engine's durable state: the measured epoch count
// plus the context-switch journal needed to replay it bit-identically.
type Sim struct {
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

func (s *Session) validate() error {
	if s.Version != Version {
		return fmt.Errorf("snapshot version %d (want %d)", s.Version, Version)
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
func (s *Session) checksum() (string, error) {
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
func (s *Session) verifyChecksum() error {
	want, err := s.checksum()
	if err != nil {
		return err
	}
	if s.Checksum != want {
		return fmt.Errorf("checksum %q, recomputed %s", s.Checksum, want)
	}
	return nil
}

// Encode validates a snapshot, stamps its integrity checksum and returns
// the canonical wire bytes every Store backend persists. Factoring the
// encoding out of FileStore is what makes backends
// pluggable: the file store, the in-memory store, the HTTP snapshot service
// and the replicated store (internal/cluster) all store these exact bytes,
// so a snapshot written by one restores through any other.
func Encode(snap *Session) ([]byte, error) {
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

// Decode parses stored snapshot bytes for id, enforcing the full
// load contract shared by every backend: undecodable, truncated, checksum-
// failing, wrong-version or mis-filed bytes all come back as ErrNoSnapshot
// (wrapped with detail) so corruption degrades to a cold start — never a
// panic, never a serving error.
func Decode(id string, data []byte) (*Session, error) {
	var snap Session
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
