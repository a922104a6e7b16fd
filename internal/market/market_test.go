package market

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// sqrtUtility is a smooth, strictly concave, non-decreasing test utility:
// U(r) = Σⱼ wⱼ·√(rⱼ/Cⱼ), normalised so owning everything gives Σ wⱼ.
type sqrtUtility struct {
	weights  []float64
	capacity []float64
}

func (u sqrtUtility) Value(alloc []float64) float64 {
	s := 0.0
	for j, w := range u.weights {
		frac := alloc[j] / u.capacity[j]
		if frac < 0 {
			frac = 0
		}
		s += w * math.Sqrt(frac)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	u := sqrtUtility{weights: []float64{1, 1}, capacity: []float64{1, 1}}
	ps := []*Player{
		{Name: "a", Utility: u, Budget: 1},
		{Name: "b", Utility: u, Budget: 1},
	}
	if _, err := New(nil, ps, Config{}); err == nil {
		t.Error("no resources accepted")
	}
	if _, err := New([]float64{0, 1}, ps, Config{}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New([]float64{1, 1}, ps[:1], Config{}); err == nil {
		t.Error("single player accepted")
	}
	if _, err := New([]float64{1, 1}, []*Player{ps[0], {Name: "x", Budget: 1}}, Config{}); err == nil {
		t.Error("player without utility accepted")
	}
	if _, err := New([]float64{1, 1}, []*Player{ps[0], {Name: "x", Utility: u, Budget: -1}}, Config{}); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := New([]float64{1, 1}, ps, Config{}); err != nil {
		t.Errorf("valid market rejected: %v", err)
	}
}

func TestOptimizeBidsEqualizesLambda(t *testing.T) {
	cfg := DefaultConfig()
	capacity := []float64{100, 100}
	u := sqrtUtility{weights: []float64{1, 1}, capacity: capacity}
	others := []float64{10, 10}
	bids := optimizeBids(u, 20, others, capacity, cfg, nil, nil)
	if math.Abs(bids[0]+bids[1]-20) > 1e-9 {
		t.Fatalf("bids %v do not spend the budget", bids)
	}
	lams := marginalUtilities(u, bids, others, capacity, 1e-4, nil)
	span := math.Abs(lams[0]-lams[1]) / math.Max(lams[0], lams[1])
	if span > 0.10 {
		t.Errorf("lambda spread %.3f too large: %v", span, lams)
	}
	// Symmetric problem: bids should be near-equal.
	if math.Abs(bids[0]-bids[1]) > 2 {
		t.Errorf("symmetric bids unbalanced: %v", bids)
	}
}

func TestOptimizeBidsSkewedPreferences(t *testing.T) {
	cfg := DefaultConfig()
	capacity := []float64{100, 100}
	// Strongly prefers resource 0.
	u := sqrtUtility{weights: []float64{10, 0.1}, capacity: capacity}
	bids := optimizeBids(u, 20, []float64{10, 10}, capacity, cfg, nil, nil)
	if bids[0] <= bids[1] {
		t.Errorf("player should bid more on the preferred resource: %v", bids)
	}
	if bids[0] < 15 {
		t.Errorf("preferred-resource bid %g too small", bids[0])
	}
}

func TestOptimizeBidsZeroBudget(t *testing.T) {
	capacity := []float64{10, 10}
	u := sqrtUtility{weights: []float64{1, 1}, capacity: capacity}
	bids := optimizeBids(u, 0, []float64{1, 1}, capacity, DefaultConfig(), nil, nil)
	if bids[0] != 0 || bids[1] != 0 {
		t.Errorf("zero budget should produce zero bids: %v", bids)
	}
}

func TestOptimizeBidsSingleResource(t *testing.T) {
	capacity := []float64{10}
	u := sqrtUtility{weights: []float64{1}, capacity: capacity}
	bids := optimizeBids(u, 7, []float64{3}, capacity, DefaultConfig(), nil, nil)
	if bids[0] != 7 {
		t.Errorf("single-resource bid = %g, want full budget", bids[0])
	}
}

func newTestMarket(t *testing.T, budgets []float64, weights [][]float64) *Market {
	t.Helper()
	capacity := []float64{100, 100}
	var players []*Player
	for i, b := range budgets {
		players = append(players, &Player{
			Name:    string(rune('A' + i)),
			Utility: sqrtUtility{weights: weights[i], capacity: capacity},
			Budget:  b,
		})
	}
	m, err := New(capacity, players, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEquilibriumSymmetric(t *testing.T) {
	m := newTestMarket(t,
		[]float64{10, 10},
		[][]float64{{1, 1}, {1, 1}})
	eq, err := m.FindEquilibrium()
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Converged {
		t.Fatalf("symmetric market did not converge in %d iterations", eq.Iterations)
	}
	// Equal players, equal budgets: allocations split evenly.
	for j := 0; j < 2; j++ {
		if math.Abs(eq.Allocations[0][j]-eq.Allocations[1][j]) > 2 {
			t.Errorf("asymmetric allocation of resource %d: %g vs %g",
				j, eq.Allocations[0][j], eq.Allocations[1][j])
		}
	}
	// Everything is allocated.
	for j := 0; j < 2; j++ {
		total := eq.Allocations[0][j] + eq.Allocations[1][j]
		if math.Abs(total-100) > 1e-6 {
			t.Errorf("resource %d allocation total %g, want 100", j, total)
		}
	}
	if !StronglyCompetitive(eq.Bids) {
		t.Error("symmetric market should be strongly competitive")
	}
}

func TestEquilibriumSpecializedPlayers(t *testing.T) {
	// Player A cares only about resource 0, B only about resource 1.
	m := newTestMarket(t,
		[]float64{10, 10},
		[][]float64{{1, 0}, {0, 1}})
	eq, err := m.FindEquilibrium()
	if err != nil {
		t.Fatal(err)
	}
	if eq.Allocations[0][0] < 90 {
		t.Errorf("specialist A got only %g of its resource", eq.Allocations[0][0])
	}
	if eq.Allocations[1][1] < 90 {
		t.Errorf("specialist B got only %g of its resource", eq.Allocations[1][1])
	}
}

func TestEquilibriumBudgetBuysShare(t *testing.T) {
	// Identical utilities, 3:1 budgets → allocation shares ≈ 3:1.
	m := newTestMarket(t,
		[]float64{30, 10},
		[][]float64{{1, 1}, {1, 1}})
	eq, err := m.FindEquilibrium()
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		ratio := eq.Allocations[0][j] / eq.Allocations[1][j]
		if math.Abs(ratio-3) > 0.3 {
			t.Errorf("resource %d allocation ratio = %g, want ≈3", j, ratio)
		}
	}
	if eq.Utilities[0] <= eq.Utilities[1] {
		t.Error("richer identical player should get higher utility")
	}
}

func TestLambdaDecreasesWithBudget(t *testing.T) {
	// Footnote 1: λᵢ decreases monotonically with a larger budget.
	lambdaFor := func(budget float64) float64 {
		m := newTestMarket(t,
			[]float64{budget, 10, 10},
			[][]float64{{1, 1}, {1, 1}, {1, 1}})
		eq, err := m.FindEquilibrium()
		if err != nil {
			t.Fatal(err)
		}
		return eq.Lambdas[0]
	}
	l5, l20, l80 := lambdaFor(5), lambdaFor(20), lambdaFor(80)
	if !(l5 > l20 && l20 > l80) {
		t.Errorf("lambda should fall with budget: λ(5)=%g λ(20)=%g λ(80)=%g", l5, l20, l80)
	}
}

func TestEquilibriumRespectsMaxIterations(t *testing.T) {
	// Asymmetric preferences: one bidding–pricing round cannot settle the
	// prices, so the iteration budget must trip.
	m := newTestMarket(t,
		[]float64{10, 40},
		[][]float64{{5, 1}, {1, 5}})
	m.maxRounds = 1
	eq, err := m.FindEquilibrium()
	if err == nil {
		t.Fatal("1-iteration run converged; expected NotConvergedError")
	}
	var nc *NotConvergedError
	if !errors.As(err, &nc) {
		t.Fatalf("error %v is not a NotConvergedError", err)
	}
	if nc.Partial == nil {
		t.Fatal("NotConvergedError must carry the partial state")
	}
	if eq != nil {
		t.Error("non-converged run must not also return an equilibrium")
	}
	// Settle is the explicit §6.4 fail-safe: accept the best-effort state.
	eq, err = Settle(m.FindEquilibrium())
	if err != nil {
		t.Fatal(err)
	}
	if eq.Converged {
		t.Error("settled partial state should report Converged=false")
	}
	if eq.Iterations > 1 {
		t.Errorf("iterations = %d, want <= 1", eq.Iterations)
	}
	if len(eq.Utilities) != 2 || len(eq.Lambdas) != 2 {
		t.Error("partial state missing utilities or lambdas")
	}
}

func TestStronglyCompetitive(t *testing.T) {
	if StronglyCompetitive(nil) {
		t.Error("empty bids cannot be strongly competitive")
	}
	if !StronglyCompetitive([][]float64{{1, 2}, {3, 4}}) {
		t.Error("two positive bidders per resource is strongly competitive")
	}
	if StronglyCompetitive([][]float64{{1, 0}, {3, 4}}) {
		t.Error("resource with single bidder accepted")
	}
}

func TestUtilityFuncAdapter(t *testing.T) {
	f := UtilityFunc(func(a []float64) float64 { return a[0] * 2 })
	if f.Value([]float64{3}) != 6 {
		t.Error("UtilityFunc adapter broken")
	}
}

// Property: random 3-player sqrt-utility markets settle to a feasible
// allocation with spent budgets and capacity conservation — converged or
// not (the §6.4 fail-safe state must be feasible too).
func TestEquilibriumFeasibility(t *testing.T) {
	f := func(ws [6]float64, bs [3]float64) bool {
		capacity := []float64{100, 50}
		var players []*Player
		for i := 0; i < 3; i++ {
			w1 := 0.1 + math.Abs(math.Mod(ws[2*i], 5))
			w2 := 0.1 + math.Abs(math.Mod(ws[2*i+1], 5))
			b := 1 + math.Abs(math.Mod(bs[i], 50))
			players = append(players, &Player{
				Utility: sqrtUtility{weights: []float64{w1, w2}, capacity: capacity},
				Budget:  b,
			})
		}
		m, err := New(capacity, players, Config{})
		if err != nil {
			return false
		}
		eq, err := Settle(m.FindEquilibrium())
		if err != nil {
			return false
		}
		for j := range capacity {
			total := 0.0
			for i := range players {
				if eq.Allocations[i][j] < -1e-9 {
					return false
				}
				total += eq.Allocations[i][j]
			}
			if total > capacity[j]*(1+1e-6) {
				return false
			}
		}
		for i, p := range players {
			spent := 0.0
			for _, b := range eq.Bids[i] {
				if b < -1e-9 {
					return false
				}
				spent += b
			}
			if spent > p.Budget*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFindEquilibriumFromWarmStart(t *testing.T) {
	m := newTestMarket(t,
		[]float64{30, 10},
		[][]float64{{1, 1}, {1, 1}})
	cold, err := m.FindEquilibrium()
	if err != nil {
		t.Fatal(err)
	}
	// Warm-starting from the converged bids must converge immediately and
	// land on (essentially) the same equilibrium.
	warm, err := m.FindEquilibriumFrom(cold.Bids)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Converged {
		t.Fatal("warm restart did not converge")
	}
	if warm.Iterations > cold.Iterations {
		t.Errorf("warm restart took %d iterations vs cold %d", warm.Iterations, cold.Iterations)
	}
	for j := range warm.Prices {
		if math.Abs(warm.Prices[j]-cold.Prices[j]) > 0.05*cold.Prices[j] {
			t.Errorf("warm price %d drifted: %g vs %g", j, warm.Prices[j], cold.Prices[j])
		}
	}
}

func TestFindEquilibriumFromScalesOverBudgetBids(t *testing.T) {
	m := newTestMarket(t,
		[]float64{10, 10},
		[][]float64{{1, 1}, {1, 1}})
	// Warm bids that exceed player 0's budget must be scaled down, not
	// spent: a budget cut between equilibrium runs is the ReBudget case.
	m.Players()[0].Budget = 4
	eq, err := m.FindEquilibriumFrom([][]float64{{8, 8}, {5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	spent := 0.0
	for _, b := range eq.Bids[0] {
		spent += b
	}
	if spent > 4+1e-9 {
		t.Errorf("player 0 spent %g with budget 4", spent)
	}
}

// seededPlayers builds a deterministic bundle of n players over two
// resources with seed-varied preferences and budgets, all different.
func seededPlayers(n int, seed uint64) ([]float64, []*Player) {
	capacity := []float64{100, 100}
	players := make([]*Player, n)
	for i := range players {
		s := seed + uint64(i)*2654435761
		w0 := 0.5 + float64(s%17)/4
		w1 := 0.5 + float64((s/17)%13)/3
		players[i] = &Player{
			Name:    string(rune('A' + i)),
			Utility: sqrtUtility{weights: []float64{w0, w1}, capacity: capacity},
			Budget:  50 + float64(s%7)*10,
		}
	}
	return capacity, players
}

// TestReusedBuffersMatchFreshMarket: a Market keeps its bid matrices, price
// buffers and scratch from run to run, and no run may see what the last one
// left there. One market solved cold twice and then warm-started after a
// budget cut must equal, bit for bit, a fresh market given the same inputs
// at each step.
func TestReusedBuffersMatchFreshMarket(t *testing.T) {
	for _, n := range []int{8, 67} {
		fresh := func(cut bool) *Market {
			capacity, players := seededPlayers(n, 99)
			if cut {
				players[3].Budget *= 0.6
			}
			m, err := New(capacity, players, Config{})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		reused := fresh(false)
		var first *Equilibrium
		for run := 0; run < 2; run++ {
			got, err := Settle(reused.FindEquilibrium())
			if err != nil {
				t.Fatal(err)
			}
			want, err := Settle(fresh(false).FindEquilibrium())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d run %d: reused market diverged from a fresh one\nreused: %+v\nfresh:  %+v", n, run, got, want)
			}
			first = got
		}
		reused.Players()[3].Budget *= 0.6
		got, err := Settle(reused.FindEquilibriumFrom(first.Bids))
		if err != nil {
			t.Fatal(err)
		}
		want, err := Settle(fresh(true).FindEquilibriumFrom(first.Bids))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: warm start on reused buffers diverged from a fresh market\nreused: %+v\nfresh:  %+v", n, got, want)
		}
	}
}

// TestWarmStartRenormalisation checks the round-zero bid scaling of
// FindEquilibriumFrom directly: the round hook aborts before the first
// round, so the partial state exposes exactly the renormalised warm bids.
func TestWarmStartRenormalisation(t *testing.T) {
	capacity := []float64{100, 100}
	u := sqrtUtility{weights: []float64{1, 1}, capacity: capacity}
	players := []*Player{
		{Name: "raised", Utility: u, Budget: 40}, // warm bids sum to 20
		{Name: "cut", Utility: u, Budget: 10},    // warm bids sum to 20
		{Name: "same", Utility: u, Budget: 20},   // warm bids sum to 20
		{Name: "fresh", Utility: u, Budget: 12},  // all-zero warm bids
	}
	m, err := New(capacity, players, Config{
		RoundHook: func(int) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	sameBids := []float64{7.25, 12.75}
	warm := [][]float64{
		{5, 15},
		{12, 8},
		{sameBids[0], sameBids[1]},
		{0, 0},
	}
	_, err = m.FindEquilibriumFrom(warm)
	nc, ok := err.(*NotConvergedError)
	if !ok {
		t.Fatalf("expected *NotConvergedError from aborted run, got %v", err)
	}
	bids := nc.Partial.Bids

	sum := func(row []float64) float64 {
		s := 0.0
		for _, b := range row {
			s += b
		}
		return s
	}
	// Raised budget: bids scale up to spend the full 40 (this was the bug —
	// the old engine only scaled down, so a raised budget went unspent).
	if got := sum(bids[0]); math.Abs(got-40) > 1e-9 {
		t.Errorf("raised-budget player spends %g of 40", got)
	}
	if ratio := bids[0][1] / bids[0][0]; math.Abs(ratio-3) > 1e-9 {
		t.Errorf("scale-up should preserve bid proportions, got ratio %g want 3", ratio)
	}
	// Cut budget: scaled down as before.
	if got := sum(bids[1]); math.Abs(got-10) > 1e-9 {
		t.Errorf("cut-budget player spends %g of 10", got)
	}
	// Unchanged budget: bids pass through bit-identical — the 1e-9 relative
	// tolerance must not perturb bids that already spend the budget.
	if bids[2][0] != sameBids[0] || bids[2][1] != sameBids[1] {
		t.Errorf("unchanged-budget bids perturbed: %v want %v", bids[2], sameBids)
	}
	// Zero warm bids with positive budget: cold equal split.
	if bids[3][0] != 6 || bids[3][1] != 6 {
		t.Errorf("zero warm bids should restart from equal split, got %v", bids[3])
	}
}

func TestFindEquilibriumFromMalformedStart(t *testing.T) {
	m := newTestMarket(t,
		[]float64{10, 10},
		[][]float64{{1, 1}, {1, 1}})
	// Wrong-shaped warm starts fall back to the cold equal split.
	eq, err := m.FindEquilibriumFrom([][]float64{{1}})
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Converged {
		t.Error("malformed warm start should still converge from cold split")
	}
}

func TestEquilibriumRejectsNaNUtility(t *testing.T) {
	// A pathological utility that emits NaN must surface as an error, not
	// poison downstream MUR/efficiency computations.
	nan := UtilityFunc(func(a []float64) float64 { return math.NaN() })
	ok := sqrtUtility{weights: []float64{1, 1}, capacity: []float64{10, 10}}
	m, err := New([]float64{10, 10}, []*Player{
		{Name: "bad", Utility: nan, Budget: 5},
		{Name: "ok", Utility: ok, Budget: 5},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FindEquilibrium(); err == nil {
		t.Error("NaN utility accepted")
	}
}

func TestGreedyOptimizerMatchesHillClimb(t *testing.T) {
	capacity := []float64{100, 100}
	others := []float64{40, 25}
	for _, w := range [][]float64{{1, 1}, {5, 1}, {0.3, 2}} {
		u := sqrtUtility{weights: w, capacity: capacity}
		hc := optimizeBids(u, 30, others, capacity, DefaultConfig(), nil, nil)
		gr := optimizeBidsGreedy(u, 30, others, capacity, 200, nil, nil)
		uhc := u.Value(predictedAlloc(hc, others, capacity, nil))
		ugr := u.Value(predictedAlloc(gr, others, capacity, nil))
		// The reference may beat the heuristic slightly, never hugely,
		// and the heuristic must be within 2% of the reference.
		if uhc < ugr*0.98 {
			t.Errorf("weights %v: hill climb %g more than 2%% below greedy %g", w, uhc, ugr)
		}
	}
}

func TestGreedyOptimizerSpendsBudget(t *testing.T) {
	capacity := []float64{10, 10}
	u := sqrtUtility{weights: []float64{1, 1}, capacity: capacity}
	gr := optimizeBidsGreedy(u, 12, []float64{3, 3}, capacity, 100, nil, nil)
	if math.Abs(gr[0]+gr[1]-12) > 1e-9 {
		t.Errorf("greedy bids %v do not spend the budget", gr)
	}
	if z := optimizeBidsGreedy(u, 0, []float64{3, 3}, capacity, 100, nil, nil); z[0] != 0 || z[1] != 0 {
		t.Error("zero budget should give zero bids")
	}
	single := optimizeBidsGreedy(u, 5, []float64{1}, capacity[:1], 100, nil, nil)
	if single[0] != 5 {
		t.Error("single resource gets everything")
	}
}

func TestEquilibriumWithGreedyOptimizer(t *testing.T) {
	capacity := []float64{100, 100}
	mk := func(opt BidOptimizer) *Equilibrium {
		var players []*Player
		for i, w := range [][]float64{{1, 2}, {2, 1}, {1, 1}} {
			players = append(players, &Player{
				Name:    string(rune('A' + i)),
				Utility: sqrtUtility{weights: w, capacity: capacity},
				Budget:  10 + float64(i)*5,
			})
		}
		m, err := New(capacity, players, Config{Optimizer: opt})
		if err != nil {
			t.Fatal(err)
		}
		eq, err := m.FindEquilibrium()
		if err != nil {
			t.Fatal(err)
		}
		return eq
	}
	hc, gr := mk(HillClimb), mk(GreedyExact)
	if !gr.Converged {
		t.Error("greedy-optimizer market did not converge")
	}
	// Both optimizers land on essentially the same equilibrium welfare.
	if math.Abs(hc.Efficiency()-gr.Efficiency()) > 0.05*gr.Efficiency() {
		t.Errorf("equilibria diverge: hill climb %g vs greedy %g",
			hc.Efficiency(), gr.Efficiency())
	}
}

// TestEquilibriumIsApproximateNash verifies the defining property of the
// equilibrium directly: once converged, no player can improve its utility
// more than marginally by unilaterally re-optimising its bids against the
// final prices.
func TestEquilibriumIsApproximateNash(t *testing.T) {
	capacity := []float64{100, 60}
	var players []*Player
	weights := [][]float64{{1, 2}, {2, 1}, {1, 1}, {3, 0.5}}
	for i, w := range weights {
		players = append(players, &Player{
			Name:    string(rune('A' + i)),
			Utility: sqrtUtility{weights: w, capacity: capacity},
			Budget:  20 + 10*float64(i),
		})
	}
	m, err := New(capacity, players, Config{})
	if err != nil {
		t.Fatal(err)
	}
	eq, err := m.FindEquilibrium()
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Converged {
		t.Fatal("market did not converge")
	}
	for i, p := range players {
		others := make([]float64, len(capacity))
		for j := range others {
			others[j] = eq.Prices[j]*capacity[j] - eq.Bids[i][j]
		}
		current := p.Utility.Value(eq.Allocations[i])
		// Best unilateral response via the fine-grained reference optimizer.
		best := optimizeBidsGreedy(p.Utility, p.Budget, others, capacity, 400, nil, nil)
		alt := p.Utility.Value(predictedAlloc(best, others, capacity, nil))
		if alt > current*1.03 {
			t.Errorf("player %s can deviate profitably: %.4f -> %.4f", p.Name, current, alt)
		}
	}
}

// Efficiency returns the social welfare Σᵢ Uᵢ(rᵢ) (Definition 1).
func (e *Equilibrium) Efficiency() float64 {
	s := 0.0
	for _, u := range e.Utilities {
		s += u
	}
	return s
}

// StronglyCompetitive reports whether every resource receives non-zero bids
// from at least two players, the condition under which Lemma 1 guarantees
// an equilibrium exists.
func StronglyCompetitive(bids [][]float64) bool {
	if len(bids) == 0 {
		return false
	}
	for j := range bids[0] {
		n := 0
		for i := range bids {
			if bids[i][j] > 0 {
				n++
			}
		}
		if n < 2 {
			return false
		}
	}
	return true
}
