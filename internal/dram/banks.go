package dram

import (
	"fmt"
	"math"
)

// BankSim is the bank-level memory model: it consumes the actual L2-miss
// address stream, tracks per-bank open rows (open-page policy) and
// measures — rather than assumes — the row-buffer hit rate and the
// per-bank load imbalance. Latency per epoch is the measured mean device
// latency plus an M/D/1 queueing term evaluated per bank, so a stream that
// hammers one bank pays more than one spread across the channel's banks.
type BankSim struct {
	channels int
	banks    int // per channel
	rowLines int // cache lines per row buffer

	openRow []int64 // per (channel, bank); -1 = closed
	// Per-epoch counters.
	perBank  []uint64
	accesses uint64
	rowHits  uint64
}

// DDR3-1600-like geometry: 8 banks per rank, one rank per channel modelled,
// 8 kB row buffers (128 lines).
const (
	DefaultBanksPerChannel = 8
	DefaultRowLines        = 8 << 10 / LineBytes
	// bankServiceNs is the bank-occupancy time of one access (device
	// core latency; the shared data bus is accounted by the channel
	// bandwidth model).
	bankServiceNs = 10.0
)

// NewBankSim builds the model.
func NewBankSim(channels int) (*BankSim, error) {
	if channels < 1 {
		return nil, fmt.Errorf("dram: need at least one channel, got %d", channels)
	}
	n := channels * DefaultBanksPerChannel
	s := &BankSim{
		channels: channels,
		banks:    DefaultBanksPerChannel,
		rowLines: DefaultRowLines,
		openRow:  make([]int64, n),
		perBank:  make([]uint64, n),
	}
	for i := range s.openRow {
		s.openRow[i] = -1
	}
	return s, nil
}

// bankOf maps a line address to its (channel, bank) slot and row id. Lines
// interleave across channels (bandwidth); within a channel, consecutive
// lines fill a row before moving on (locality), and rows interleave across
// banks.
func (s *BankSim) bankOf(lineAddr uint64) (slot int, row int64) {
	ch := int(lineAddr % uint64(s.channels))
	inChannel := lineAddr / uint64(s.channels)
	rowID := inChannel / uint64(s.rowLines)
	bank := int(rowID % uint64(s.banks))
	return ch*s.banks + bank, int64(rowID / uint64(s.banks))
}

// Access records one miss going to memory and reports whether it hit an
// open row.
func (s *BankSim) Access(addr uint64) bool {
	slot, row := s.bankOf(addr / LineBytes)
	s.accesses++
	s.perBank[slot]++
	if s.openRow[slot] == row {
		s.rowHits++
		return true
	}
	s.openRow[slot] = row
	return false
}

// BaseLatencyNs is the measured device latency this epoch: the row-hit /
// row-miss mix without any queueing term. Used when bandwidth is privately
// partitioned per core and queueing is charged against each core's own
// allocation instead of the shared pool.
func (s *BankSim) BaseLatencyNs() float64 {
	if s.accesses == 0 {
		return 0.5*RowHitNs + 0.5*RowMissNs
	}
	hit := s.RowHitRate()
	return hit*RowHitNs + (1-hit)*RowMissNs
}

// RowHitRate returns the measured row-buffer hit rate this epoch (0 when
// idle).
func (s *BankSim) RowHitRate() float64 {
	if s.accesses == 0 {
		return 0
	}
	return float64(s.rowHits) / float64(s.accesses)
}

// EpochLatencyNs returns the average miss-service latency over the epoch:
// the measured row-hit/row-miss mix plus per-bank queueing. The simulator
// samples the access stream, so sampleScale (≥1) converts observed counts
// into real arrival rates; epochSeconds is the wall-clock epoch length.
func (s *BankSim) EpochLatencyNs(epochSeconds, sampleScale float64) float64 {
	if s.accesses == 0 {
		return 0.5*RowHitNs + 0.5*RowMissNs
	}
	hit := s.RowHitRate()
	base := hit*RowHitNs + (1-hit)*RowMissNs
	// Access-weighted queueing delay across banks.
	epochNs := epochSeconds * 1e9
	var weighted float64
	for _, n := range s.perBank {
		if n == 0 {
			continue
		}
		rate := float64(n) * sampleScale
		rho := math.Min(rate*bankServiceNs/epochNs, 0.95)
		wait := base * rho / (2 * (1 - rho))
		weighted += float64(n) * wait
	}
	return base + weighted/float64(s.accesses)
}

// Reset clears epoch counters; open-row state persists (rows stay open
// across allocation epochs on real parts).
func (s *BankSim) Reset() {
	for i := range s.perBank {
		s.perBank[i] = 0
	}
	s.accesses, s.rowHits = 0, 0
}
