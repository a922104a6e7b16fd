package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"rebudget/internal/core"
	"rebudget/internal/market"
	"rebudget/internal/metrics"
	"rebudget/internal/numeric"
	"rebudget/internal/workload"
)

// referenceReBudget is ReBudget.Allocate for unit-weight players at the
// default threshold, step fraction and round bound, written over
// FindEquilibriumFrom: every budget step gets a fresh Equilibrium.
func referenceReBudget(t *testing.T, r core.ReBudget, capacity []float64, players []core.PlayerSpec) *core.Outcome {
	t.Helper()
	floor, err := r.EffectiveMBRFloor()
	if err != nil {
		t.Fatal(err)
	}
	mp := make([]*market.Player, len(players))
	budgets := make([]float64, len(players))
	for i, p := range players {
		budgets[i] = core.InitialBudget
		mp[i] = &market.Player{Name: p.Name, Utility: p.Utility, Budget: budgets[i]}
	}
	m, err := market.New(capacity, mp, market.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sched := core.NewCutSchedule(r.Step, 0.01*core.InitialBudget, false)
	var eq *market.Equilibrium
	var warm [][]float64
	iters, runs := 0, 0
	for round := 0; round < 30; round++ {
		if eq, err = market.Settle(m.FindEquilibriumFrom(warm)); err != nil {
			t.Fatal(err)
		}
		warm = eq.Bids
		iters += eq.Iterations
		runs++
		step, ok := sched.Next()
		if !ok {
			break
		}
		maxLambda := 0.0
		for _, l := range eq.Lambdas {
			maxLambda = max(maxLambda, l)
		}
		cut := false
		for i, l := range eq.Lambdas {
			if nb := max(budgets[i]-step, floor*core.InitialBudget); l < 0.5*maxLambda && nb < budgets[i] {
				budgets[i], mp[i].Budget, cut = nb, nb, true
			}
		}
		if !cut {
			break
		}
	}
	mur, err := metrics.MUR(eq.Lambdas)
	if err != nil {
		t.Fatal(err)
	}
	mbr, err := metrics.MBR(budgets)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Outcome{
		Mechanism: r.Name(), Allocations: eq.Allocations, Utilities: eq.Utilities,
		Budgets: budgets, Lambdas: eq.Lambdas, Bids: eq.Bids, MUR: mur, MBR: mbr,
		Iterations: iters, EquilibriumRuns: runs, Converged: eq.Converged,
	}
}

// TestReBudgetInPlaceMatchesFreshRuns: ReBudget re-converges every budget
// step into one Equilibrium; on a 64-core catalog bundle of each category
// its outcome equals, field for field, the loop that allocates a fresh
// Equilibrium per step.
func TestReBudgetInPlaceMatchesFreshRuns(t *testing.T) {
	rng := numeric.NewRand(11)
	for _, cat := range workload.Categories() {
		b, err := workload.Generate(cat, 64, rng)
		if err != nil {
			t.Fatal(err)
		}
		s, err := workload.NewSetup(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []core.ReBudget{{Step: 20}, {Step: 40}} {
			t.Run(fmt.Sprintf("%s/%s", cat, r.Name()), func(t *testing.T) {
				got, err := r.Allocate(s.Capacity, s.Players)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceReBudget(t, r, s.Capacity, s.Players)
				if want.EquilibriumRuns < 2 {
					t.Fatalf("only %d equilibrium runs: nothing was re-converged", want.EquilibriumRuns)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("in-place outcome diverged from fresh runs\ngot:  %+v\nwant: %+v", got, want)
				}
			})
		}
	}
}
