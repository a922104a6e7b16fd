package market

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

// namedUtility is a sqrtUtility that names itself: utilities sharing a kind
// pointer and a scale compute the same function, which is what Identity
// promises. evals counts evaluations, so a test can see who was solved.
type namedUtility struct {
	sqrtUtility
	kind  *int
	scale float64
	evals *int
	nan   bool // poison every evaluation
}

func (u namedUtility) Value(alloc []float64) float64 {
	if u.evals != nil {
		*u.evals++
	}
	if u.nan {
		return math.NaN()
	}
	return u.scale * u.sqrtUtility.Value(alloc)
}

func (u namedUtility) Identity() (any, float64) {
	if u.kind == nil {
		return nil, 0
	}
	return u.kind, u.scale
}

// hidden forwards Value and nothing else: the same function with its
// identity method out of the market's sight — the uncollapsed reference.
type hidden struct{ u Utility }

func (h hidden) Value(alloc []float64) float64 { return h.u.Value(alloc) }

// hide returns the same players with every utility's identity hidden.
func hide(players []*Player) []*Player {
	out := make([]*Player, len(players))
	for i, p := range players {
		q := *p
		q.Utility = hidden{p.Utility}
		out[i] = &q
	}
	return out
}

var classCapacity = []float64{100, 100}

// classPlayers builds n players over `kinds` different functions and
// `budgets` different budgets, so the bundle has at most kinds×budgets
// classes with members interleaved across the index range.
func classPlayers(n, kinds, budgets int) []*Player {
	keys := make([]int, kinds)
	players := make([]*Player, n)
	for i := range players {
		k := (i * 7) % kinds
		players[i] = &Player{
			Name: string(rune('A' + i)),
			Utility: namedUtility{
				sqrtUtility: sqrtUtility{weights: []float64{0.5 + float64(k), 3.5 - float64(k)/2}, capacity: classCapacity},
				kind:        &keys[k],
				scale:       1,
			},
			Budget: 60 + 15*float64((i/3)%budgets),
		}
	}
	return players
}

func mustMarket(t *testing.T, players []*Player, cfg Config) *Market {
	t.Helper()
	m, err := New(classCapacity, players, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestClassifyPartition checks the three-part identity directly: function,
// budget and starting row must all agree bit for bit, a nil key never
// merges, and every member points at its class's lowest index.
func TestClassifyPartition(t *testing.T) {
	kindA, kindB := new(int), new(int)
	base := sqrtUtility{weights: []float64{1, 2}, capacity: classCapacity}
	mk := func(kind *int, scale, budget float64) *Player {
		return &Player{Utility: namedUtility{sqrtUtility: base, kind: kind, scale: scale}, Budget: budget}
	}
	negZero := math.Copysign(0, -1)
	players := []*Player{
		0:  mk(kindA, 1, 100),
		1:  mk(kindB, 1, 100),                               // other function
		2:  mk(kindA, 1, 100),                               // = 0
		3:  mk(kindA, 1, 100.00000000000001),                // budget one ulp off
		4:  mk(kindA, 2, 100),                               // other scale
		5:  mk(nil, 1, 100),                                 // unnamed
		6:  mk(nil, 1, 100),                                 // unnamed: not even with 5
		7:  mk(kindB, 1, 100),                               // = 1
		8:  {Utility: base, Budget: 100},                    // not Identified at all
		9:  mk(kindA, 1, 100),                               // = 0 cold, split by the warm row below
		10: mk(kindA, 0, 100),                               // +0 scale
		11: mk(kindA, negZero, 100),                         // −0 scale: 0 == −0 but the bits differ
		12: {Utility: UtilityFunc(base.Value), Budget: 100}, // a closure has no name
		13: mk(kindA, 2, 100),                               // = 4
	}
	m := mustMarket(t, players, Config{RoundHook: func(int) bool { return false }})

	_, _ = m.FindEquilibrium()
	wantCold := []int{0, 1, 0, 3, 4, 5, 6, 1, 8, 0, 10, 11, 12, 4}
	if !reflect.DeepEqual(m.classOf, wantCold) {
		t.Errorf("cold classes %v, want %v", m.classOf, wantCold)
	}
	if want := []int{0, 1, 3, 4, 5, 6, 8, 10, 11, 12}; !reflect.DeepEqual(m.reps, want) {
		t.Errorf("cold representatives %v, want %v", m.reps, want)
	}

	// A warm matrix in which two same-function, same-budget rows differ
	// must keep them apart; rows 0 and 2 stay equal and stay merged.
	warm := make([][]float64, len(players))
	for i := range warm {
		warm[i] = []float64{50, 50}
	}
	warm[9] = []float64{50.000000000000007, 49.999999999999993}
	_, _ = m.FindEquilibriumFrom(warm)
	wantWarm := append([]int(nil), wantCold...)
	wantWarm[9] = 9
	if !reflect.DeepEqual(m.classOf, wantWarm) {
		t.Errorf("warm classes %v, want %v", m.classOf, wantWarm)
	}

	// The partition is per run: a budget rewritten between runs (what
	// ReBudget does) moves its player out, and moving it back re-forms the
	// class.
	players[2].Budget = 80
	_, _ = m.FindEquilibrium()
	if m.classOf[2] != 2 || m.classOf[9] != 0 {
		t.Errorf("after a cut: classOf[2]=%d classOf[9]=%d, want 2 and 0", m.classOf[2], m.classOf[9])
	}
	players[2].Budget = 100
	_, _ = m.FindEquilibrium()
	if !reflect.DeepEqual(m.classOf, wantCold) {
		t.Errorf("after restoring the budget: classes %v, want %v", m.classOf, wantCold)
	}
}

// observed is everything a run shows its caller besides the equilibrium.
type observed struct {
	rounds, steps int
	hooks         []int
}

func observe(cfg Config, o *observed) Config {
	cfg.Observer = func(rounds, steps int, _ time.Duration) { o.rounds, o.steps = rounds, steps }
	hook := cfg.RoundHook
	cfg.RoundHook = func(it int) bool {
		o.hooks = append(o.hooks, it)
		return hook == nil || hook(it)
	}
	return cfg
}

// TestCollapsedMatchesHidden is the differential test at the market's own
// level: the same players, named and with their names hidden, must agree on
// every field of the equilibrium and on the logical accounting (rounds, bid
// steps = players × rounds, hook calls) — cold, warm, after a budget cut,
// converged or cut short.
func TestCollapsedMatchesHidden(t *testing.T) {
	for _, tc := range []struct {
		name              string
		n, kinds, budgets int
		cfg               Config
		rounds            int // when > 0, the round budget, at a tolerance no run meets
	}{
		{"8 players, 3 classes", 8, 3, 1, Config{}, 0},
		{"64 players, 12 classes", 64, 6, 2, Config{}, 0},
		{"64 players, 12 classes, greedy", 64, 6, 2, Config{Optimizer: GreedyExact, GreedyQuanta: 20}, 0},
		{"64 players, 60 classes", 64, 12, 5, Config{}, 0},
		{"67 players, all alone", 67, 67, 1, Config{}, 0},
		{"cut short", 64, 6, 2, Config{RoundHook: func(it int) bool { return it < 3 }}, 0},
		{"out of rounds", 64, 6, 2, Config{}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			named := classPlayers(tc.n, tc.kinds, tc.budgets)
			var on, oh observed
			mn := mustMarket(t, named, observe(tc.cfg, &on))
			mh := mustMarket(t, hide(named), observe(tc.cfg, &oh))
			if tc.rounds > 0 {
				for _, m := range []*Market{mn, mh} {
					m.maxRounds, m.priceTol = tc.rounds, 1e-12
				}
			}
			var warmN, warmH [][]float64
			for run := 0; run < 4; run++ {
				if run == 2 {
					// What ReBudget does between runs: cut some budgets,
					// re-converge from the previous bids.
					for _, i := range []int{1, 4, 5} {
						mn.Players()[i].Budget -= 20
						mh.Players()[i].Budget -= 20
					}
				}
				gotEq, gotErr := mn.FindEquilibriumFrom(warmN)
				wantEq, wantErr := mh.FindEquilibriumFrom(warmH)
				if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
					t.Fatalf("run %d: named error %v, hidden error %v", run, gotErr, wantErr)
				}
				got, _ := Settle(gotEq, gotErr)
				want, _ := Settle(wantEq, wantErr)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("run %d: collapsed equilibrium differs from the uncollapsed one\nnamed:  %+v\nhidden: %+v", run, got, want)
				}
				if !reflect.DeepEqual(on, oh) {
					t.Fatalf("run %d: accounting differs: named %+v, hidden %+v", run, on, oh)
				}
				if on.steps != tc.n*on.rounds {
					t.Fatalf("run %d: %d bid steps over %d rounds of %d players", run, on.steps, on.rounds, tc.n)
				}
				if len(mh.reps) != tc.n {
					t.Fatalf("run %d: hidden market collapsed to %d classes", run, len(mh.reps))
				}
				if run > 0 {
					warmN, warmH = got.Bids, want.Bids
				}
			}
			if tc.kinds*tc.budgets < tc.n && len(mn.reps) >= tc.n {
				t.Errorf("named market did not collapse: %d classes of %d players", len(mn.reps), tc.n)
			}
		})
	}
}

// TestMembersAreNotEvaluated pins the point of the exercise: with two
// functions on one budget the rounds and the post-phase evaluate two
// utilities, whatever the player count.
func TestMembersAreNotEvaluated(t *testing.T) {
	players := classPlayers(16, 2, 1)
	evals := make([]int, len(players))
	for i, p := range players {
		u := p.Utility.(namedUtility)
		u.evals = &evals[i]
		p.Utility = u
	}
	m := mustMarket(t, players, Config{})
	if _, err := Settle(m.FindEquilibrium()); err != nil {
		t.Fatal(err)
	}
	for i, n := range evals {
		if rep := m.classOf[i] == i; rep != (n > 0) {
			t.Errorf("player %d (representative %v) was evaluated %d times", i, rep, n)
		}
	}
	if len(m.reps) != 2 {
		t.Errorf("%d classes, want 2", len(m.reps))
	}
}

// TestUtilityErrorNamesSamePlayer: a representative is its class's lowest
// index, so the first failing player reported does not move.
func TestUtilityErrorNamesSamePlayer(t *testing.T) {
	players := classPlayers(12, 3, 1)
	bad := players[2].Utility.(namedUtility).kind
	for _, p := range players {
		if u := p.Utility.(namedUtility); u.kind == bad {
			u.nan = true
			p.Utility = u
		}
	}
	var got, want *UtilityError
	_, err := mustMarket(t, players, Config{}).FindEquilibrium()
	if !errors.As(err, &got) {
		t.Fatalf("named: %v, want a UtilityError", err)
	}
	_, err = mustMarket(t, hide(players), Config{}).FindEquilibrium()
	if !errors.As(err, &want) {
		t.Fatalf("hidden: %v, want a UtilityError", err)
	}
	if got.Player != want.Player || got.Name != want.Name || got.Context != want.Context {
		t.Errorf("named reports %+v, hidden %+v", got, want)
	}
}
