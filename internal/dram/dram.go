// Package dram models the off-chip memory system the paper configures as
// Micron DDR3-1600 behind 2 (8-core) or 16 (64-core) channels. The
// allocation mechanisms only feel DRAM through the average L2-miss service
// latency: System gives the uncontended, row-buffer-aware base latency, and
// BankSim adds per-bank open-row state and an M/D/1-style queueing term.
package dram

import "fmt"

// Timing constants approximating DDR3-1600 (Micron MT41J256M8).
const (
	// RowHitNs is the device latency of a row-buffer hit (CL ≈ 13.75 ns
	// plus I/O).
	RowHitNs = 18.0
	// RowMissNs adds precharge + activate (tRP + tRCD ≈ 27.5 ns).
	RowMissNs = 46.0
	// ChannelBandwidthGBs is the peak transfer rate per channel
	// (64-bit bus × 1600 MT/s = 12.8 GB/s).
	ChannelBandwidthGBs = 12.8
	// LineBytes is the transfer unit (one L2 line).
	LineBytes = 64
)

// Config describes a memory system.
type Config struct {
	Channels   int
	RowHitRate float64 // fraction of accesses hitting an open row
}

// System is a memory-system instance.
type System struct {
	cfg Config
}

// New validates cfg.
func New(cfg Config) (*System, error) {
	if cfg.Channels < 1 {
		return nil, fmt.Errorf("dram: need at least one channel, got %d", cfg.Channels)
	}
	if cfg.RowHitRate < 0 || cfg.RowHitRate > 1 {
		return nil, fmt.Errorf("dram: row hit rate %g outside [0,1]", cfg.RowHitRate)
	}
	return &System{cfg: cfg}, nil
}

// BaseLatencyNs is the uncontended average access latency.
func (s *System) BaseLatencyNs() float64 {
	return s.cfg.RowHitRate*RowHitNs + (1-s.cfg.RowHitRate)*RowMissNs
}
