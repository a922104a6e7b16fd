package cmpsim

import (
	"fmt"

	"rebudget/internal/core"
	"rebudget/internal/metrics"
)

// This file is the chip's incremental execution API. Run/RunWithSwitches
// drive a whole simulation in one call; a long-lived owner (the rebudgetd
// serving layer, notably) instead calls Begin once and then StepEpoch per
// allocation interval, snapshotting results whenever a client asks. The
// batch entry points are implemented on top of these primitives, so the
// two paths execute the identical operation sequence — the golden tests
// pin that equivalence.
//
// A Chip is not safe for concurrent use; the owner must serialise Begin,
// StepEpoch, SwitchApp and Snapshot (the serving layer does so with a
// per-session goroutine). Inside Begin and StepEpoch an epoch may lend its
// trace generation to a process-wide helper goroutine (sched.go), but the
// epoch returns only after the helper's last chunk, so between calls the
// chip belongs to its owner alone and distinct chips share no state.

// Begin prepares the chip for incremental stepping under the given
// allocator: fault hooks and market configuration (round parallelism,
// equilibrium profiling) are installed, and the configured warmup epochs
// run under the initial EqualShare allocation without being measured. A
// chip begins at most once; construct a new chip per run.
func (c *Chip) Begin(alloc core.Allocator) error {
	if alloc == nil {
		return fmt.Errorf("cmpsim: nil allocator")
	}
	if c.ran {
		// A chip accumulates cache, thermal and accounting state; a second
		// run would silently mix measurements. Build a fresh chip instead.
		return fmt.Errorf("cmpsim: chip already ran; construct a new chip per run")
	}
	c.ran = true
	// Solver-stall faults, round parallelism and convergence-cost profiling
	// all enter through the market configuration; the allocator types
	// themselves stay fault-agnostic.
	c.alloc = core.WithMarketConfig(alloc, c.marketConfig)
	for e := 0; e < c.cfg.WarmupEpochs; e++ {
		c.runEpoch(false)
	}
	return nil
}

// StepEpoch advances one measured epoch: the allocator is re-invoked when
// the epoch index hits the ReallocEvery cadence (first epoch included),
// then the chip simulates one allocation interval. Allocation failures are
// absorbed by the degraded-mode state machine exactly as in Run; a
// returned error means a construction bug, not a runtime fault.
func (c *Chip) StepEpoch() error {
	if c.alloc == nil {
		return fmt.Errorf("cmpsim: StepEpoch before Begin")
	}
	if c.stepped%c.cfg.ReallocEvery == 0 {
		if err := c.reallocate(c.alloc); err != nil {
			return err
		}
	}
	c.runEpoch(true)
	c.stepped++
	return nil
}

// Stepped returns the number of measured epochs executed so far.
func (c *Chip) Stepped() int { return c.stepped }

// Elapsed returns the measured virtual time simulated so far, in seconds.
func (c *Chip) Elapsed() float64 { return c.elapsed }

// Health returns the allocation pipeline's current degraded-mode telemetry.
func (c *Chip) Health() metrics.Health { return c.health }

// Equilibrium returns the convergence-cost counters accumulated over every
// equilibrium the chip's allocator has run so far.
func (c *Chip) Equilibrium() metrics.EquilibriumStats {
	return c.eqProfile.Snapshot()
}

// LastOutcome returns the most recent allocator decision, or nil if the
// allocator has not succeeded yet. The outcome is shared, not copied;
// callers must treat it as read-only.
func (c *Chip) LastOutcome() *core.Outcome { return c.lastOutcome }

// Snapshot summarises the run so far as a Result: normalised performance
// is measured over each application's residency (arrival epoch to now),
// envy-freeness is evaluated on the latest clean monitor curves, and the
// telemetry counters are copied out. It requires at least one measured
// epoch, does not mutate simulation state, and may be called between
// steps as often as needed.
func (c *Chip) Snapshot() (*Result, error) {
	if c.stepped == 0 {
		return nil, fmt.Errorf("cmpsim: no measured epochs to snapshot")
	}
	res := &Result{
		Mechanism: c.alloc.Name(),
		NormPerf:  make([]float64, c.cfg.Cores),
	}
	maxTemp, totalPower := 0.0, 0.0
	for i := 0; i < c.cfg.Cores; i++ {
		alone, err := alonePerfIPS(c.bundle.Apps[i], c.sys)
		if err != nil {
			return nil, err
		}
		// An application switched in after the last step has no measured
		// residency yet; it reports zero rather than dividing by it.
		if span := float64(c.stepped-c.arrival[i]) * c.epochS; span > 0 {
			res.NormPerf[i] = c.instructions[i] / span / alone
		}
		res.WeightedSpeedup += res.NormPerf[i]
		t := c.therm[i].Temp()
		if t > maxTemp {
			maxTemp = t
		}
		totalPower += c.models[i].Power.Total(c.freq[i], c.models[i].Spec.Activity, t)
	}
	res.MaxTempC = maxTemp
	res.AvgPowerW = totalPower / float64(c.cfg.Cores)
	res.ThrottleEpochs = c.throttles
	res.Health = c.health
	res.Faults = c.injector.Stats()
	res.Equilibrium = c.eqProfile.Snapshot()
	res.FinalOutcome = c.lastOutcome
	if c.reallocs > 0 {
		res.MeanIterations = float64(c.iterSum) / float64(c.reallocs)
	}
	if c.lastOutcome != nil {
		_, utils, err := c.buildPlayers()
		if err != nil {
			return nil, err
		}
		ef, err := envyFreenessOf(utils, c.lastOutcome.Allocations)
		if err != nil {
			return nil, err
		}
		res.EnvyFreeness = ef
	} else {
		res.EnvyFreeness = 1
	}
	return res, nil
}
