package market

import (
	"math"
	"reflect"
	"testing"
)

// parallelPlayers builds a deterministic bundle of n players over two
// resources with seed-varied preferences and budgets — enough asymmetry
// that any scheduling-dependent divergence in the parallel engine would
// show up in the bid matrix.
func parallelPlayers(n int, seed uint64) ([]float64, []*Player) {
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

// parallelSizes straddle the serial cut-over and leave ragged final claim
// blocks (49, 67), so the pool runs with full blocks, a one-player tail and
// a three-player tail.
var parallelSizes = []int{minParallelPlayers, minParallelPlayers + 1, 64, 67}

// marketPair builds the same seeded bundle twice: once pinned to the serial
// loop, once on a pool of the given width (closed with the test).
func marketPair(t *testing.T, n int, seed uint64, workers int) (serial, parallel *Market) {
	t.Helper()
	capacity, players := parallelPlayers(n, seed)
	serial, err := New(capacity, players, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	capacity2, players2 := parallelPlayers(n, seed)
	parallel, err = New(capacity2, players2, Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(parallel.Close)
	return serial, parallel
}

// TestParallelMatchesSerial pins the engine's core guarantee: the worker
// pool claims player blocks dynamically, but each result lands in its own
// indexed slot and per-player math reads only round-start state, so any
// worker count must be bit-identical to Workers:1 — not approximately
// equal, reflect.DeepEqual on every float.
func TestParallelMatchesSerial(t *testing.T) {
	for _, n := range parallelSizes {
		for _, workers := range []int{2, 3, 8} {
			serial, parallel := marketPair(t, n, uint64(n*31+workers), workers)
			// Two consecutive runs per market: the second exercises the
			// reused scratch buffers and the already-warm worker pool.
			for run := 0; run < 2; run++ {
				want, err := Settle(serial.FindEquilibrium())
				if err != nil {
					t.Fatalf("n=%d workers=%d run %d serial: %v", n, workers, run, err)
				}
				got, err := Settle(parallel.FindEquilibrium())
				if err != nil {
					t.Fatalf("n=%d workers=%d run %d parallel: %v", n, workers, run, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("n=%d workers=%d run %d: parallel equilibrium diverged from serial\nserial:   %+v\nparallel: %+v",
						n, workers, run, want, got)
				}
			}
			if serial.pool != nil || parallel.pool == nil {
				t.Fatalf("n=%d workers=%d: the comparison must be serial loop vs pool (serial pool %v, parallel pool %v)",
					n, workers, serial.pool != nil, parallel.pool != nil)
			}
		}
	}
}

// TestParallelWarmStartMatchesSerial covers the ReBudget path: warm-started
// re-convergence after a budget cut must also be bit-identical across
// worker counts.
func TestParallelWarmStartMatchesSerial(t *testing.T) {
	for _, n := range parallelSizes {
		for _, workers := range []int{2, 3, 8} {
			serial, parallel := marketPair(t, n, 99, workers)
			want, err := Settle(serial.FindEquilibrium())
			if err != nil {
				t.Fatal(err)
			}
			got, err := Settle(parallel.FindEquilibrium())
			if err != nil {
				t.Fatal(err)
			}
			// Cut one budget and re-converge from the previous bids on both
			// engines.
			serial.Players()[3].Budget *= 0.6
			parallel.Players()[3].Budget *= 0.6
			want2, err := Settle(serial.FindEquilibriumFrom(want.Bids))
			if err != nil {
				t.Fatal(err)
			}
			got2, err := Settle(parallel.FindEquilibriumFrom(got.Bids))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want2, got2) {
				t.Fatalf("n=%d workers=%d: warm-started parallel equilibrium diverged from serial\nserial:   %+v\nparallel: %+v",
					n, workers, want2, got2)
			}
		}
	}
}

// TestSmallMarketNeverStartsPool: under the cut-over a round is cheaper
// than its dispatch, so no worker count may start the goroutines.
func TestSmallMarketNeverStartsPool(t *testing.T) {
	for _, n := range []int{2, claimBlock, minParallelPlayers - 1} {
		capacity, players := parallelPlayers(n, 5)
		m, err := New(capacity, players, Config{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Settle(m.FindEquilibrium()); err != nil {
			t.Fatal(err)
		}
		if m.pool != nil {
			t.Errorf("%d-player market started a worker pool", n)
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
