// Package cmpsim is the execution-driven chip-multiprocessor simulator the
// reproduction uses in place of SESC (§5.1). It models the pieces the
// allocation mechanisms interact with: per-core synthetic instruction
// streams driving a shared, partitioned, set-associative L2 (with Talus
// shadow partitions and Futility-Scaling enforcement), UMON monitors,
// per-core DVFS under a chip power budget, an RC thermal model with leakage
// feedback, and a contended DDR3-like memory system. Allocation decisions
// are re-taken every 1 ms epoch from online-monitored utilities, exactly as
// §4.3 schedules ReBudget off the APIC timer.
package cmpsim

import (
	"fmt"

	"rebudget/internal/fault"
	"rebudget/internal/power"
)

// Config sizes a simulation.
type Config struct {
	// Cores is the CMP size (8 or 64 in the paper; any multiple of 4
	// works).
	Cores int
	// WarmupEpochs run under EqualShare before measurement starts.
	WarmupEpochs int
	// Epochs is the measured portion of the run.
	Epochs int
	// MaxAccessesPerCoreEpoch caps the simulated L2 accesses per core
	// each epoch (trace sampling). Each core's count is clamped to it on
	// its own, so cores past the cap all issue the same number of
	// accesses and relative cache pressure is not preserved (ROADMAP
	// item 2).
	MaxAccessesPerCoreEpoch int
	// ReallocEvery invokes the allocator every this many epochs.
	ReallocEvery int
	// Seed drives all randomised behaviour deterministically.
	Seed uint64
	// BandwidthMarket adds memory bandwidth as a third market resource,
	// enforced MemGuard-style: each core's miss traffic queues against
	// its own allocated share of the channels rather than the shared
	// pool. Exercises the framework's general M-resource form (§2).
	BandwidthMarket bool
	// Faults configures deterministic fault injection into the allocation
	// pipeline (corrupted monitor readings, misbehaving utilities, stalled
	// equilibrium searches). The zero value disables injection entirely
	// and leaves the simulation bit-identical to a build without it.
	Faults fault.Config
}

// epochSeconds is the allocation interval (§4.3 uses 1 ms).
const epochSeconds = 1e-3

// The chip's healthy → degraded → recovering state machine (see DESIGN.md,
// "Failure model & degraded mode").
const (
	// maxConsecFailures is how many consecutive allocation failures the
	// pipeline tolerates before transitioning to Degraded and pinning the
	// last installed allocation.
	maxConsecFailures = 3
	// cooldownIntervals is how many reallocation intervals the pipeline
	// stays pinned before transitioning to Recovering and re-probing the
	// allocator.
	cooldownIntervals = 4
)

// DefaultConfig returns a simulation sized for the given core count with
// costs suitable for tests and benchmarks.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:                   cores,
		WarmupEpochs:            8,
		Epochs:                  12,
		MaxAccessesPerCoreEpoch: 6000,
		ReallocEvery:            1,
		Seed:                    1,
	}
}

func (c Config) validate() error {
	if c.Cores < 2 {
		return fmt.Errorf("cmpsim: need at least 2 cores, got %d", c.Cores)
	}
	if c.Epochs < 1 || c.WarmupEpochs < 0 {
		return fmt.Errorf("cmpsim: invalid epoch counts %d/%d", c.WarmupEpochs, c.Epochs)
	}
	if c.MaxAccessesPerCoreEpoch < 100 {
		return fmt.Errorf("cmpsim: access budget %d too small to be meaningful", c.MaxAccessesPerCoreEpoch)
	}
	if c.ReallocEvery < 1 {
		return fmt.Errorf("cmpsim: ReallocEvery must be >= 1")
	}
	return nil
}

// SystemConfig mirrors Table 1 for reporting: the fixed architectural
// parameters of the modelled CMP at a given core count.
type SystemConfig struct {
	Cores              int
	PowerBudgetW       float64
	L2CapacityBytes    int
	L2Ways             int
	MemoryChannels     int
	FreqMinGHz         float64
	FreqMaxGHz         float64
	VoltMin            float64
	VoltMax            float64
	RegionBytes        int
	UMONSampleRate     int
	UMONMaxStackRegion int
}

// NewSystemConfig scales Table 1 to the core count: 512 kB of shared L2 and
// 10 W of TDP per core, 16 ways at 8 cores and 32 at 64, 2 memory channels
// per 8 cores.
func NewSystemConfig(cores int) SystemConfig {
	ways := 16
	if cores > 16 {
		ways = 32
	}
	channels := cores / 4
	if channels < 1 {
		channels = 1
	}
	return SystemConfig{
		Cores:              cores,
		PowerBudgetW:       power.TDPPerCoreW * float64(cores),
		L2CapacityBytes:    cores * 512 << 10,
		L2Ways:             ways,
		MemoryChannels:     channels,
		FreqMinGHz:         power.MinFreqGHz,
		FreqMaxGHz:         power.MaxFreqGHz,
		VoltMin:            power.MinVolt,
		VoltMax:            power.MaxVolt,
		RegionBytes:        128 << 10,
		UMONSampleRate:     32,
		UMONMaxStackRegion: 16,
	}
}
