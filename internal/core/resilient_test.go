package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"rebudget/internal/market"
	"rebudget/internal/metrics"
)

// flakyAllocator fails (or returns poisoned outcomes) according to a
// script, then delegates to EqualShare. Its good outcomes are marked as its
// own, so a caller tells them (and the wrapper's cached copies of them) from
// the wrapper's EqualShare fallback.
type flakyAllocator struct {
	script []error // nil entry = success; consumed per call
	calls  int
	poison bool // return NaN allocations instead of an error
}

func (f *flakyAllocator) Name() string { return "flaky" }

func (f *flakyAllocator) Allocate(capacity []float64, players []PlayerSpec) (*Outcome, error) {
	i := f.calls
	f.calls++
	if i < len(f.script) && f.script[i] != nil {
		if f.poison {
			out, err := EqualShare{}.Allocate(capacity, players)
			if err != nil {
				return nil, err
			}
			out.Allocations[0][0] = math.NaN()
			return out, nil
		}
		return nil, f.script[i]
	}
	out, err := EqualShare{}.Allocate(capacity, players)
	if err == nil {
		out.Mechanism = f.Name()
	}
	return out, err
}

func failN(n int) []error {
	errs := make([]error, n)
	for i := range errs {
		errs[i] = fmt.Errorf("boom %d", i)
	}
	return errs
}

func TestResilientTransparentWhenHealthy(t *testing.T) {
	players := heterogeneousPlayers()
	want, err := EqualShare{}.Allocate(testCapacity, players)
	if err != nil {
		t.Fatal(err)
	}
	inner := &flakyAllocator{}
	r := NewResilient(inner, ResilientConfig{})
	got, err := r.Allocate(testCapacity, players)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Allocations {
		for j := range want.Allocations[i] {
			if got.Allocations[i][j] != want.Allocations[i][j] {
				t.Fatalf("healthy wrapper altered allocation [%d][%d]", i, j)
			}
		}
	}
	if got.Mechanism != "flaky" || inner.calls != 1 || r.HealthState() != metrics.Healthy {
		t.Errorf("healthy wrapper degraded: outcome from %q after %d inner calls, state %v", got.Mechanism, inner.calls, r.HealthState())
	}
	if r.Name() != "flaky" {
		t.Errorf("Name = %q", r.Name())
	}
}

func TestResilientServesLastGoodThenFallback(t *testing.T) {
	players := heterogeneousPlayers()
	// Each failing Allocate consumes two inner calls (raw + sanitized retry).
	inner := &flakyAllocator{script: append([]error{nil}, failN(4)...)}
	r := NewResilient(inner, ResilientConfig{})
	if _, err := r.Allocate(testCapacity, players); err != nil {
		t.Fatal(err)
	}
	// Failures with a cached outcome for the same shape → last good.
	for k := 0; k < 2; k++ {
		out, err := r.Allocate(testCapacity, players)
		if err != nil {
			t.Fatal(err)
		}
		if out == nil {
			t.Fatal("nil outcome from degraded path")
		}
		if out.Mechanism != "flaky" {
			t.Errorf("failure %d served %q, want the last good outcome", k, out.Mechanism)
		}
	}
	if inner.calls != 5 {
		t.Errorf("inner calls = %d, want 5: one success, then a raw try and a sanitized retry per failure", inner.calls)
	}

	// A different problem shape invalidates the cache → fallback mechanism.
	inner2 := &flakyAllocator{script: failN(8)}
	r2 := NewResilient(inner2, ResilientConfig{})
	out, err := r2.Allocate(testCapacity, players)
	if err != nil {
		t.Fatal(err)
	}
	if out.Mechanism != "EqualShare" {
		t.Errorf("fallback mechanism = %q, want EqualShare", out.Mechanism)
	}
}

func TestResilientBackoffAndRecovery(t *testing.T) {
	players := heterogeneousPlayers()
	// Fails 3× at the wrapper level (threshold) then recovers; each failed
	// call burns a raw attempt plus a sanitized retry.
	inner := &flakyAllocator{script: failN(6)}
	r := NewResilient(inner, ResilientConfig{})
	// Three failures: the wrapper should enter backoff on the third.
	for k := 0; k < resilientThreshold; k++ {
		if _, err := r.Allocate(testCapacity, players); err != nil {
			t.Fatal(err)
		}
	}
	if r.HealthState() != metrics.Degraded {
		t.Fatalf("state after %d failures = %v, want backoff (Degraded)", resilientThreshold, r.HealthState())
	}
	innerCallsAtBackoff := inner.calls
	// During cooldown the inner mechanism must not be probed.
	cooldown := 0
	for r.cooldownLeft > 0 {
		if _, err := r.Allocate(testCapacity, players); err != nil {
			t.Fatal(err)
		}
		cooldown++
		if cooldown > 2*resilientCooldown+1 {
			t.Fatal("cooldown never expired")
		}
	}
	if cooldown < resilientCooldown {
		t.Errorf("cooldown lasted %d calls, want at least %d", cooldown, resilientCooldown)
	}
	if inner.calls != innerCallsAtBackoff {
		t.Errorf("inner probed %d times during cooldown", inner.calls-innerCallsAtBackoff)
	}
	// Next call probes again and succeeds.
	if _, err := r.Allocate(testCapacity, players); err != nil {
		t.Fatal(err)
	}
	if inner.calls != innerCallsAtBackoff+1 {
		// one raw probe; the scripted failures are exhausted so it succeeds
		// on the first try (no sanitized retry).
		t.Errorf("inner calls after recovery = %d, want %d", inner.calls, innerCallsAtBackoff+1)
	}
	if r.HealthState() != metrics.Healthy {
		t.Errorf("recovered wrapper state = %v, want Healthy", r.HealthState())
	}
}

func TestResilientFailedProbeReentersBackoffImmediately(t *testing.T) {
	players := heterogeneousPlayers()
	inner := &flakyAllocator{script: failN(50)}
	r := NewResilient(inner, ResilientConfig{})
	for k := 0; k < resilientThreshold; k++ {
		if _, err := r.Allocate(testCapacity, players); err != nil {
			t.Fatal(err)
		}
	}
	if r.HealthState() != metrics.Degraded {
		t.Fatal("did not enter backoff after threshold failures")
	}
	// Drain the cooldown, then fail the recovery probe: backoff must
	// resume after ONE failure, not another full threshold streak.
	for r.cooldownLeft > 0 {
		if _, err := r.Allocate(testCapacity, players); err != nil {
			t.Fatal(err)
		}
	}
	if r.HealthState() != metrics.Recovering {
		t.Fatalf("state after cooldown = %v, want Recovering", r.HealthState())
	}
	if _, err := r.Allocate(testCapacity, players); err != nil {
		t.Fatal(err)
	}
	if r.HealthState() != metrics.Degraded {
		t.Errorf("state after failed recovery probe = %v, want backoff (Degraded)", r.HealthState())
	}
}

func TestResilientRejectsNonFiniteOutcomes(t *testing.T) {
	players := heterogeneousPlayers()
	inner := &flakyAllocator{script: failN(1), poison: true}
	r := NewResilient(inner, ResilientConfig{})
	out, err := r.Allocate(testCapacity, players)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out.Allocations {
		for j, a := range out.Allocations[i] {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				t.Fatalf("non-finite allocation [%d][%d] leaked through", i, j)
			}
		}
	}
	// The poisoned outcome failed the raw try; the sanitized retry's
	// outcome is the inner mechanism's own.
	if inner.calls != 2 || out.Mechanism != "flaky" {
		t.Errorf("poisoned outcome: %d inner calls, served %q; want a retry's outcome after 2 calls", inner.calls, out.Mechanism)
	}
}

func TestResilientSanitizedRetryRecovers(t *testing.T) {
	// An inner mechanism that fails only when it sees a non-finite utility:
	// the sanitized retry must succeed.
	players := heterogeneousPlayers()
	players[0].Utility = market.UtilityFunc(func(a []float64) float64 { return math.NaN() })
	inner := EqualBudget{}
	if _, err := inner.Allocate(testCapacity, players); err == nil {
		t.Fatal("EqualBudget accepted a NaN utility; the retry is not exercised")
	}
	r := NewResilient(inner, ResilientConfig{})
	out, err := r.Allocate(testCapacity, players)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range out.Budgets {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			t.Fatal("NaN budget leaked through sanitized retry")
		}
	}
	if out.Mechanism != inner.Name() || r.HealthState() != metrics.Healthy {
		t.Errorf("sanitized retry: served %q in state %v, want %q and Healthy", out.Mechanism, r.HealthState(), inner.Name())
	}
}

func TestCheckFinite(t *testing.T) {
	ok := &Outcome{Allocations: [][]float64{{1, 2}}, Budgets: []float64{3}}
	if err := checkFinite(ok); err != nil {
		t.Errorf("finite outcome rejected: %v", err)
	}
	bad := &Outcome{Allocations: [][]float64{{1, math.Inf(1)}}}
	if err := checkFinite(bad); !errors.Is(err, ErrBadInput) {
		t.Errorf("Inf allocation error = %v, want ErrBadInput", err)
	}
	badB := &Outcome{Allocations: [][]float64{{1}}, Budgets: []float64{math.NaN()}}
	if err := checkFinite(badB); !errors.Is(err, ErrBadInput) {
		t.Errorf("NaN budget error = %v, want ErrBadInput", err)
	}
}
