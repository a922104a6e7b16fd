package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// EquilibriumProfile accumulates per-phase cost counters across equilibrium
// searches: how many searches ran, how many bidding–pricing rounds and
// player bid re-optimisations they took, and the wall time they consumed.
// The paper's §6.4 deployability argument hinges on exactly these numbers —
// convergence cost per epoch, not just end-state quality.
//
// All counters are atomic, so one profile may be shared across concurrent
// markets (the sweep runs bundles in parallel). Wire it to a market via
// Config.Observer:
//
//	var prof metrics.EquilibriumProfile
//	cfg.Observer = prof.Observe
type EquilibriumProfile struct {
	runs     atomic.Int64
	rounds   atomic.Int64
	bidSteps atomic.Int64
	wallNs   atomic.Int64
}

// Observe records one completed equilibrium search. Its signature matches
// market.Config.Observer.
func (p *EquilibriumProfile) Observe(rounds, bidSteps int, wall time.Duration) {
	p.runs.Add(1)
	p.rounds.Add(int64(rounds))
	p.bidSteps.Add(int64(bidSteps))
	p.wallNs.Add(int64(wall))
}

// Snapshot returns a consistent-enough copy for reporting (individual
// counters are read atomically; a concurrent Observe may land between
// reads, which is fine for telemetry).
func (p *EquilibriumProfile) Snapshot() EquilibriumStats {
	return EquilibriumStats{
		Runs:     p.runs.Load(),
		Rounds:   p.rounds.Load(),
		BidSteps: p.bidSteps.Load(),
		Wall:     time.Duration(p.wallNs.Load()),
	}
}

// EquilibriumStats is a point-in-time view of an EquilibriumProfile.
type EquilibriumStats struct {
	Runs     int64         // equilibrium searches completed
	Rounds   int64         // bidding–pricing rounds summed over searches
	BidSteps int64         // player bid re-optimisations summed over searches
	Wall     time.Duration // wall time summed over searches
}

// RoundsPerRun is the mean convergence length, or 0 with no runs.
func (s EquilibriumStats) RoundsPerRun() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.Rounds) / float64(s.Runs)
}

// WallPerRun is the mean search latency, or 0 with no runs.
func (s EquilibriumStats) WallPerRun() time.Duration {
	if s.Runs == 0 {
		return 0
	}
	return s.Wall / time.Duration(s.Runs)
}

// String renders the stats in a single human-readable line.
func (s EquilibriumStats) String() string {
	return fmt.Sprintf("equilibrium runs %d, rounds %d (%.2f/run), bid steps %d, wall %v (%v/run)",
		s.Runs, s.Rounds, s.RoundsPerRun(), s.BidSteps, s.Wall.Round(time.Microsecond),
		s.WallPerRun().Round(time.Microsecond))
}
