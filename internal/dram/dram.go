// Package dram models the off-chip memory system the paper configures as
// Micron DDR3-1600 behind 2 (8-core) or 16 (64-core) channels. The
// allocation mechanisms only feel DRAM through the average L2-miss service
// latency, which BankSim measures from the miss stream: per-bank open-row
// state for the row-buffer hit rate, and an M/D/1-style queueing term.
package dram

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
