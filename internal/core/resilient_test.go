package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"rebudget/internal/market"
)

// flakyAllocator fails (or returns poisoned outcomes) according to a
// script, then delegates to EqualShare.
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
	return EqualShare{}.Allocate(capacity, players)
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
	r := NewResilient(EqualShare{}, ResilientConfig{})
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
	s := r.Stats()
	if s.InnerFailures != 0 || s.FallbackServed != 0 || s.LastGoodServed != 0 {
		t.Errorf("healthy wrapper recorded degradations: %+v", s)
	}
	if r.Name() != "EqualShare" {
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
	}
	if got := r.Stats().LastGoodServed; got != 2 {
		t.Errorf("LastGoodServed = %d, want 2", got)
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
	if got := r2.Stats().FallbackServed; got != 1 {
		t.Errorf("FallbackServed = %d, want 1", got)
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
	s := r.Stats()
	if s.Backoffs != 1 {
		t.Fatalf("Backoffs = %d, want 1", s.Backoffs)
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
	if got := r.Stats().Backoffs; got != 1 {
		t.Errorf("recovered wrapper backed off again: %d", got)
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
	if r.Stats().Backoffs != 1 {
		t.Fatal("did not enter backoff after threshold failures")
	}
	// Drain the cooldown, then fail the recovery probe: backoff must
	// resume after ONE failure, not another full threshold streak.
	for r.cooldownLeft > 0 {
		if _, err := r.Allocate(testCapacity, players); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Allocate(testCapacity, players); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Backoffs; got != 2 {
		t.Errorf("Backoffs after failed recovery probe = %d, want 2", got)
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
	if r.Stats().InnerFailures != 1 {
		t.Errorf("poisoned outcome not counted as inner failure: %+v", r.Stats())
	}
}

func TestResilientSanitizedRetryRecovers(t *testing.T) {
	// An inner mechanism that fails only when it sees a non-finite utility:
	// the sanitized retry must succeed.
	players := heterogeneousPlayers()
	players[0].Utility = market.UtilityFunc(func(a []float64) float64 { return math.NaN() })
	inner := EqualBudget{}
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
	if got := r.Stats().SanitizedRecoveries; got != 1 {
		t.Errorf("SanitizedRecoveries = %d, want 1", got)
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

// Stats snapshots the fallback-chain counters.
func (r *Resilient) Stats() ResilientStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}
