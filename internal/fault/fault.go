// Package fault is a deterministic fault-injection framework for the
// allocation pipeline. A seeded Injector can corrupt UMON/monitor readings
// (NaN, Inf, multiplicative spikes, dropouts), make player utilities
// misbehave mid-equilibrium, and stall or cap equilibrium searches via the
// market's round hook. Everything is driven by one private xorshift stream,
// so a given (Config, call sequence) always injects the same faults — the
// resilience experiments are bit-reproducible.
//
// The framework is wired in behind nil checks: a disabled Config builds no
// injector, draws no random numbers, and leaves every code path byte-
// identical to a build without fault injection.
package fault

import (
	"math"
	"sync"

	"rebudget/internal/market"
	"rebudget/internal/numeric"
)

// Kind enumerates the monitor-corruption fault types.
type Kind int

// Monitor fault kinds.
const (
	// KindNaN replaces a reading with NaN (a desynchronised sensor).
	KindNaN Kind = iota
	// KindInf replaces a reading with +Inf (a counter rollover).
	KindInf
	// KindSpike multiplies a reading by a large factor (a glitched bus).
	KindSpike
	// KindDropout zeroes a reading (a dropped message).
	KindDropout
	kindCount
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNaN:
		return "nan"
	case KindInf:
		return "inf"
	case KindSpike:
		return "spike"
	case KindDropout:
		return "dropout"
	default:
		return "unknown"
	}
}

// Config selects fault rates. The zero value disables everything.
type Config struct {
	// MonitorRate is the per-reading probability that a monitor curve is
	// corrupted before it reaches utility construction.
	MonitorRate float64
	// UtilityRate is the per-evaluation probability that a wrapped
	// utility returns a non-finite value.
	UtilityRate float64
	// SolverRate is the per-equilibrium-run probability that the
	// bidding–pricing loop is stalled after stallIterations rounds.
	SolverRate float64
	// Seed drives the injector's private random stream (default 1).
	Seed uint64
}

// stallIterations is how many rounds a stalled run is allowed before the
// hook aborts it.
const stallIterations = 1

// Enabled reports whether any fault rate is non-zero.
func (c Config) Enabled() bool {
	return c.MonitorRate > 0 || c.UtilityRate > 0 || c.SolverRate > 0
}

// Stats counts the faults an injector has actually fired.
type Stats struct {
	CurveFaults   int // monitor curves corrupted
	UtilityFaults int // utility evaluations poisoned
	SolverStalls  int // equilibrium runs stalled
}

// Injector injects deterministic faults. All methods are safe for a nil
// receiver (no-ops) and for concurrent use.
type Injector struct {
	cfg Config

	mu    sync.Mutex
	rng   *numeric.Rand
	stats Stats
}

// New builds an injector, or returns nil for a disabled Config so callers
// can gate every hook on a simple nil check.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Injector{cfg: cfg, rng: numeric.NewRand(cfg.Seed)}
}

// Stats returns a snapshot of the fired-fault counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// CorruptCurve possibly corrupts a monitor reading vector in place and
// reports whether it did. At most one entry is corrupted per hit, which
// keeps the fault rate interpretable as "fraction of readings damaged".
func (in *Injector) CorruptCurve(ratio []float64) bool {
	if in == nil || len(ratio) == 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.rng.Float64() >= in.cfg.MonitorRate {
		return false
	}
	idx := in.rng.Intn(len(ratio))
	switch Kind(in.rng.Intn(int(kindCount))) {
	case KindNaN:
		ratio[idx] = math.NaN()
	case KindInf:
		ratio[idx] = math.Inf(1)
	case KindSpike:
		ratio[idx] *= 10 + 90*in.rng.Float64()
	case KindDropout:
		ratio[idx] = 0
	}
	in.stats.CurveFaults++
	return true
}

// faultyUtility poisons a fraction of evaluations with NaN. It is
// deliberately not market.Identified: every evaluation draws from the
// injector's seeded stream, so how many times it is called is part of its
// behaviour and no two of them are interchangeable.
type faultyUtility struct {
	in    *Injector
	inner market.Utility
}

// Value implements market.Utility.
func (f faultyUtility) Value(alloc []float64) float64 {
	f.in.mu.Lock()
	hit := f.in.rng.Float64() < f.in.cfg.UtilityRate
	if hit {
		f.in.stats.UtilityFaults++
	}
	f.in.mu.Unlock()
	if hit {
		return math.NaN()
	}
	return f.inner.Value(alloc)
}

// WrapUtility returns a utility that returns NaN for a UtilityRate
// fraction of evaluations — a model gone bad mid-round. With a nil
// injector or zero rate the original utility is returned untouched.
func (in *Injector) WrapUtility(u market.Utility) market.Utility {
	if in == nil || in.cfg.UtilityRate <= 0 {
		return u
	}
	return faultyUtility{in: in, inner: u}
}

// SolverHook returns a market round hook that stalls a SolverRate fraction
// of equilibrium runs: the run is aborted after stallIterations rounds and
// surfaces as a NotConvergedError. Install it as a market.Config's
// RoundHook (through core.WithMarketConfig for a wrapped mechanism).
// Returns nil for a nil injector or zero rate, which the market treats as
// "no hook".
func (in *Injector) SolverHook() func(iteration int) bool {
	if in == nil || in.cfg.SolverRate <= 0 {
		return nil
	}
	var stalled bool
	return func(iteration int) bool {
		in.mu.Lock()
		defer in.mu.Unlock()
		if iteration == 1 {
			// A new equilibrium run: decide its fate once.
			stalled = in.rng.Float64() < in.cfg.SolverRate
			if stalled {
				in.stats.SolverStalls++
			}
		}
		return !stalled || iteration <= stallIterations
	}
}
