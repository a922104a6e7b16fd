package core

import (
	"fmt"
	"math"
	"sync"

	"rebudget/internal/market"
	"rebudget/internal/metrics"
	"rebudget/internal/numeric"
)

// ResilientConfig has no fields: the fallback chain's tuning has one value
// in use, held by the constants below.
//
// Deprecated: the type remains only because the frozen bench/ module
// spells it, and the next benchmark re-base deletes it.
type ResilientConfig struct{}

// The fallback chain's tuning.
const (
	// resilientThreshold is the number of consecutive inner failures
	// before the wrapper backs off and serves degraded outcomes without
	// probing the inner mechanism.
	resilientThreshold = 3
	// resilientCooldown is the base number of Allocate calls spent backing
	// off before the inner mechanism is probed again. The actual cooldown
	// adds a deterministic jitter of up to resilientCooldown extra calls,
	// so that fleets of wrappers sharing a failing dependency do not
	// re-probe in lockstep.
	resilientCooldown = 4
	// resilientSeed drives the cooldown jitter.
	resilientSeed = 1
)

// Resilient hardens any allocation mechanism with a graceful-degradation
// fallback chain. Each Allocate call walks:
//
//  1. the inner mechanism on the raw inputs;
//  2. one retry with sanitized utilities (non-finite and negative values
//     clamped), the cheap repair for transiently corrupted monitors;
//  3. the last good outcome this wrapper produced for the same problem
//     shape (player count and capacities);
//  4. EqualShare on sanitized inputs, which cannot be poisoned by the same
//     bad input that felled the inner mechanism.
//
// After resilientThreshold consecutive inner failures the wrapper backs
// off: it serves steps 3–4 directly for a jittered resilientCooldown window
// before
// probing the inner mechanism again, bounding how much latency a
// persistently failing solver can add to the allocation path. A Resilient
// whose inner mechanism never fails is byte-transparent: outcomes pass
// through unmodified.
type Resilient struct {
	inner Allocator
	rng   *numeric.Rand

	mu           sync.Mutex
	consecFails  int
	cooldownLeft int
	recovering   bool // the next probe follows a cooldown; fail fast on error
	lastGood     *Outcome
	lastCapacity []float64
	lastPlayers  int
}

// NewResilient wraps inner with the graceful-degradation chain.
func NewResilient(inner Allocator, _ ResilientConfig) *Resilient {
	return &Resilient{inner: inner, rng: numeric.NewRand(resilientSeed)}
}

// Name implements Allocator.
func (r *Resilient) Name() string { return r.inner.Name() }

// Rewrap implements Wrapper: the wrapped mechanism is replaced in place, so
// handles to this wrapper stay valid. Long-lived owners reach it once per
// epoch, via WithWarmBids with the previous outcome's Bids.
func (r *Resilient) Rewrap(f func(Allocator) Allocator) Allocator {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inner = f(r.inner)
	return r
}

// HealthState maps the wrapper's backoff position onto the pipeline health
// taxonomy: Degraded while a cooldown is being served without probing the
// inner mechanism, Recovering on the probe right after a cooldown, Healthy
// otherwise. The serving layer exports it per session through /metrics.
func (r *Resilient) HealthState() metrics.HealthState {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.cooldownLeft > 0:
		return metrics.Degraded
	case r.recovering:
		return metrics.Recovering
	default:
		return metrics.Healthy
	}
}

// Allocate implements Allocator. It never returns NaN allocations; it
// errors only when every link of the chain fails (which requires the
// fallback mechanism itself to reject the inputs).
func (r *Resilient) Allocate(capacity []float64, players []PlayerSpec) (*Outcome, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	if r.cooldownLeft > 0 {
		r.cooldownLeft--
		if r.cooldownLeft == 0 {
			r.recovering = true
		}
		return r.degraded(capacity, players)
	}

	out, err := r.inner.Allocate(capacity, players)
	if err == nil {
		if err = checkFinite(out); err == nil {
			r.recordGood(out, capacity, len(players))
			return out, nil
		}
	}

	// Retry once on sanitized utilities: if the failure came from a
	// transiently corrupted reading, clamping non-finite values is enough
	// to get a real (if slightly conservative) decision this interval.
	out, err = r.inner.Allocate(capacity, sanitizePlayers(players))
	if err == nil {
		if err = checkFinite(out); err == nil {
			r.recordGood(out, capacity, len(players))
			return out, nil
		}
	}

	r.consecFails++
	if r.recovering || r.consecFails >= resilientThreshold {
		// A probe straight after cooldown failing again re-enters backoff
		// immediately: one failure is evidence enough mid-recovery.
		r.consecFails = 0
		r.recovering = false
		// Jittered backoff: cooldown + [0, cooldown) extra calls.
		r.cooldownLeft = resilientCooldown + int(r.rng.Uint64()%resilientCooldown)
	}
	return r.degraded(capacity, players)
}

// recordGood stores a defensive copy of the outcome for the last-known-good
// fallback and resets the failure streak.
func (r *Resilient) recordGood(out *Outcome, capacity []float64, players int) {
	r.consecFails = 0
	r.recovering = false
	r.lastGood = cloneOutcome(out)
	r.lastCapacity = append([]float64(nil), capacity...)
	r.lastPlayers = players
}

// degraded serves the tail of the chain: last good outcome if the problem
// shape matches, otherwise the fallback mechanism on sanitized inputs.
func (r *Resilient) degraded(capacity []float64, players []PlayerSpec) (*Outcome, error) {
	if r.lastGood != nil && r.lastPlayers == len(players) && sameCapacity(r.lastCapacity, capacity) {
		return cloneOutcome(r.lastGood), nil
	}
	out, err := EqualShare{}.Allocate(capacity, sanitizePlayers(players))
	if err != nil {
		return nil, fmt.Errorf("core: resilient fallback chain exhausted: %w", err)
	}
	return out, nil
}

func sameCapacity(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkFinite rejects outcomes carrying NaN/Inf allocations or budgets so
// they can never be installed on hardware or cached as last-good.
func checkFinite(out *Outcome) error {
	for i, row := range out.Allocations {
		for j, a := range row {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				return fmt.Errorf("core: %w: non-finite allocation %v for player %d resource %d",
					ErrBadInput, a, i, j)
			}
		}
	}
	for i, b := range out.Budgets {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return fmt.Errorf("core: %w: non-finite budget %v for player %d", ErrBadInput, b, i)
		}
	}
	return nil
}

func cloneOutcome(out *Outcome) *Outcome {
	cp := *out
	cp.Allocations = make([][]float64, len(out.Allocations))
	for i, row := range out.Allocations {
		cp.Allocations[i] = append([]float64(nil), row...)
	}
	cp.Utilities = append([]float64(nil), out.Utilities...)
	cp.Budgets = append([]float64(nil), out.Budgets...)
	cp.Lambdas = append([]float64(nil), out.Lambdas...)
	if out.Bids != nil {
		cp.Bids = make([][]float64, len(out.Bids))
		for i, row := range out.Bids {
			cp.Bids[i] = append([]float64(nil), row...)
		}
	}
	return &cp
}

// sanitizedUtility clamps a misbehaving utility into the finite,
// non-negative range the market theory assumes. It deliberately does not
// try to be clever: a corrupted reading becomes "worthless" rather than
// "infinitely valuable", which biases degraded allocations toward the
// players whose monitors still work.
type sanitizedUtility struct {
	inner market.Utility
}

// Value implements market.Utility.
func (s sanitizedUtility) Value(alloc []float64) float64 {
	v := s.inner.Value(alloc)
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0
	}
	return v
}

// sanitizePlayers wraps every player's utility with the non-finite clamp.
// Specs are copied; the caller's slice is never mutated.
func sanitizePlayers(players []PlayerSpec) []PlayerSpec {
	out := make([]PlayerSpec, len(players))
	for i, p := range players {
		out[i] = p
		out[i].Utility = sanitizedUtility{inner: p.Utility}
	}
	return out
}
