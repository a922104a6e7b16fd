package market

import (
	"errors"
	"reflect"
	"testing"
)

// cloneEquilibrium deep-copies eq, so a later run reusing eq cannot change
// what a test compares against.
func cloneEquilibrium(eq *Equilibrium) *Equilibrium {
	out := *eq
	out.Prices = append([]float64(nil), eq.Prices...)
	out.Utilities = append([]float64(nil), eq.Utilities...)
	out.Lambdas = append([]float64(nil), eq.Lambdas...)
	out.Bids, out.Allocations = cloneRows(eq.Bids), cloneRows(eq.Allocations)
	return &out
}

func cloneRows(rows [][]float64) [][]float64 {
	var out [][]float64
	for _, r := range rows {
		out = append(out, append([]float64(nil), r...))
	}
	return out
}

// TestFindEquilibriumIntoMatchesFrom: re-converging into the previous
// result, warm-started from its own Bids, equals a fresh result started from
// a copy of them, field for field, over a run of budget cuts like
// ReBudget's ending in a market nobody bids in — and the result is the
// reused dst, not a new one.
func TestFindEquilibriumIntoMatchesFrom(t *testing.T) {
	_, distinct := seededPlayers(8, 41)
	for _, players := range [][]*Player{distinct, classPlayers(67, 3, 2)} {
		n := len(players)
		m := mustMarket(t, players, Config{})
		eq, err := Settle(m.FindEquilibrium())
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 6; step++ {
			players[(7*step)%n].Budget *= 0.7
			if step == 5 {
				// Nobody bids: every price is zero, so no allocation of
				// the previous run may survive in dst.
				for _, p := range players {
					p.Budget = 0
				}
			}
			want, err := Settle(m.FindEquilibriumFrom(cloneRows(eq.Bids)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Settle(m.FindEquilibriumInto(eq, eq.Bids))
			if err != nil {
				t.Fatal(err)
			}
			if got != eq {
				t.Fatalf("n=%d step %d: a dst of the right shape was not reused", n, step)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d step %d: in place diverged from fresh\ninto: %+v\nfrom: %+v", n, step, got, want)
			}
		}
	}
}

// TestFindEquilibriumIntoIgnoresWrongShape: a dst shaped for another market
// is neither written nor returned.
func TestFindEquilibriumIntoIgnoresWrongShape(t *testing.T) {
	_, small := seededPlayers(8, 3)
	_, large := seededPlayers(9, 3)
	other, err := Settle(mustMarket(t, small, Config{}).FindEquilibrium())
	if err != nil {
		t.Fatal(err)
	}
	ragged := cloneEquilibrium(other)
	ragged.Bids[5] = ragged.Bids[5][:1]
	m := mustMarket(t, large, Config{})
	want, err := Settle(m.FindEquilibrium())
	if err != nil {
		t.Fatal(err)
	}
	for name, dst := range map[string]*Equilibrium{"empty": {}, "fewer players": other, "ragged row": ragged} {
		before := cloneEquilibrium(dst)
		got, err := Settle(m.FindEquilibriumInto(dst, nil))
		if err != nil {
			t.Fatal(err)
		}
		if got == dst {
			t.Errorf("%s: a misshapen dst was returned", name)
		}
		if !reflect.DeepEqual(dst, before) {
			t.Errorf("%s: a misshapen dst was written", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result differs from a cold FindEquilibrium", name)
		}
	}
}

// TestFindEquilibriumIntoPartialIsDst: a run the round hook stops carries
// dst as its NotConvergedError's Partial.
func TestFindEquilibriumIntoPartialIsDst(t *testing.T) {
	_, players := seededPlayers(8, 5)
	m := mustMarket(t, players, Config{})
	dst, err := Settle(m.FindEquilibrium())
	if err != nil {
		t.Fatal(err)
	}
	m.cfg.RoundHook = func(int) bool { return false }
	players[0].Budget *= 0.5
	eq, err := m.FindEquilibriumInto(dst, dst.Bids)
	var nc *NotConvergedError
	if !errors.As(err, &nc) {
		t.Fatalf("stopped run returned %v, want a NotConvergedError", err)
	}
	if eq != nil || nc.Partial != dst {
		t.Errorf("Partial is %p, want dst %p (and no equilibrium, got %p)", nc.Partial, dst, eq)
	}
	if dst.Converged || dst.Iterations != 0 {
		t.Errorf("dst records Converged=%v after %d rounds, want false after 0", dst.Converged, dst.Iterations)
	}
}
