package core

import (
	"errors"
	"math"
	"testing"

	"rebudget/internal/market"
)

// TestMBRFloorNeverViolated is the Theorem 2 property check: across ReBudget
// configurations and budget weights, no player's budget ever falls below
// MBRFloor × weight × InitialBudget.
func TestMBRFloorNeverViolated(t *testing.T) {
	configs := []ReBudget{
		{Step: 5},
		{Step: 20},
		{Step: 45},
		{MBRFloor: 0.3},
		{MBRFloor: 0.61},
		{MBRFloor: 0.9},
		{MinEnvyFreeness: 0.5},
		{MinEnvyFreeness: 0.8},
	}
	weightSets := [][]float64{
		nil, // default weight 1 for everyone
		{1, 1, 2, 2},
		{0.5, 1, 1.5, 3},
	}
	for _, cfg := range configs {
		floor, err := cfg.EffectiveMBRFloor()
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		for _, weights := range weightSets {
			players := heterogeneousPlayers()
			if weights != nil {
				for i := range players {
					players[i].BudgetWeight = weights[i]
				}
			}
			out, err := cfg.Allocate(testCapacity, players)
			if err != nil {
				t.Fatalf("%+v weights %v: %v", cfg, weights, err)
			}
			for i, b := range out.Budgets {
				w := players[i].weight()
				if min := floor * w * InitialBudget; b < min-1e-9 {
					t.Errorf("%+v weights %v: player %d budget %.6f below floor %.6f",
						cfg, weights, i, b, min)
				}
				if b > w*InitialBudget+1e-9 {
					t.Errorf("%+v weights %v: player %d budget %.6f above initial %.6f — cuts only",
						cfg, weights, i, b, w*InitialBudget)
				}
			}
			// Outcome.MBR is min/max over absolute budgets, so it maps onto
			// the floor only when all weights are equal; with unequal weights
			// the per-player check above is the Theorem 2 property.
			if weights == nil && out.MBR < floor-1e-9 {
				t.Errorf("%+v: reported MBR %.6f below floor %.6f", cfg, out.MBR, floor)
			}
		}
	}
}

// poisonedUtility returns a bad value on every evaluation.
type poisonedUtility struct{ bad float64 }

func (p poisonedUtility) Value([]float64) float64 { return p.bad }

// TestAllocateTypedErrorOnBadUtility: a NaN or Inf utility must surface as a
// typed error — ErrBadInput wrapping a market.UtilityError naming the
// culprit — and never as NaN budgets in a "successful" outcome.
func TestAllocateTypedErrorOnBadUtility(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, mech := range []Allocator{EqualBudget{}, Balanced{}, ReBudget{Step: 20}} {
			players := heterogeneousPlayers()
			players[1].Utility = poisonedUtility{bad: bad}
			out, err := mech.Allocate(testCapacity, players)
			if err == nil {
				// A mechanism may only "succeed" if the outcome is fully
				// finite; NaN budgets leaking out is the failure mode this
				// test exists to catch.
				if ferr := checkFinite(out); ferr != nil {
					t.Fatalf("%s with utility %v returned a non-finite outcome and no error: %v",
						mech.Name(), bad, ferr)
				}
				continue
			}
			if !errors.Is(err, ErrBadInput) {
				t.Errorf("%s with utility %v: error %v does not wrap ErrBadInput", mech.Name(), bad, err)
			}
			var uerr *market.UtilityError
			if !errors.As(err, &uerr) {
				t.Errorf("%s with utility %v: error %v carries no *market.UtilityError", mech.Name(), bad, err)
			} else if uerr.Player != 1 {
				t.Errorf("%s with utility %v: UtilityError blames player %d, want 1", mech.Name(), bad, uerr.Player)
			}
			if out != nil {
				t.Errorf("%s with utility %v: non-nil outcome alongside error", mech.Name(), bad)
			}
		}
	}
}

// TestAllocateTypedErrorOnBadBudget: an infinite weight makes a budget
// market.New refuses (+Inf; NaN once Balanced has normalised it), and every
// market mechanism must file that under ErrBadInput — cmpsim.classifyFailure
// reads it as a monitor fault, not an allocator bug.
func TestAllocateTypedErrorOnBadBudget(t *testing.T) {
	for _, mech := range []Allocator{EqualBudget{}, Balanced{}, ReBudget{Step: 20}} {
		players := heterogeneousPlayers()
		players[0].BudgetWeight = math.Inf(1)
		out, err := mech.Allocate(testCapacity, players)
		if !errors.Is(err, ErrBadInput) {
			t.Errorf("%s with an infinite weight: error %v does not wrap ErrBadInput", mech.Name(), err)
		}
		if out != nil {
			t.Errorf("%s with an infinite weight: non-nil outcome alongside error", mech.Name())
		}
	}
}

// TestResilientMasksBadUtility: the same poisoned inputs through the
// Resilient wrapper must yield a finite outcome with no error — the
// sanitized retry clamps the corruption.
func TestResilientMasksBadUtility(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		players := heterogeneousPlayers()
		players[2].Utility = poisonedUtility{bad: bad}
		r := NewResilient(ReBudget{Step: 20}, ResilientConfig{})
		out, err := r.Allocate(testCapacity, players)
		if err != nil {
			t.Fatalf("resilient ReBudget with utility %v: %v", bad, err)
		}
		if ferr := checkFinite(out); ferr != nil {
			t.Fatalf("resilient ReBudget with utility %v: %v", bad, ferr)
		}
	}
}
