package tenant

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The property tests prove the tenant-level analogues of ReBudget's
// guarantees over randomized trees and demand traces:
//
//  1. MBR floor (Theorem 2 lifted): on EVERY epoch, every tenant's granted
//     budget is ≥ min(demand, floor × slice) — a demanding tenant is never
//     starved below its floor, not even mid-reclaim.
//  2. Conservation: Σ sibling grants never exceeds the parent's grant
//     (hence Σ leaf grants ≤ capacity) — lending never mints budget.
//  3. Convergence: once demand freezes, grants settle onto targets within
//     the halving schedule's length, and saturated tenants get exactly
//     their deserved share back.
//  4. Efficiency: lending serves at least as much demand as static quotas
//     on every trace, and strictly more whenever there is headroom to lend.

const propTol = 1e-6

// randTree builds a random tenant tree (depth ≤ 3, fanout ≤ 4) with random
// shares, floors and over-quota weights, and returns its leaf paths.
func randTree(t *testing.T, rng *rand.Rand, cfg Config) (*Tree, []string) {
	t.Helper()
	var specs []NodeSpec
	id := 0
	var grow func(depth int) NodeSpec
	grow = func(depth int) NodeSpec {
		id++
		spec := NodeSpec{
			Name:            fmt.Sprintf("t%d", id),
			Share:           0.5 + 2.5*rng.Float64(),
			OverQuotaWeight: 0.5 + 1.5*rng.Float64(),
			MBRFloor:        0.1 + 0.4*rng.Float64(),
		}
		if depth < 2 && rng.Float64() < 0.4 {
			for i := 0; i < 1+rng.Intn(3); i++ {
				spec.Children = append(spec.Children, grow(depth+1))
			}
		}
		return spec
	}
	for i := 0; i < 2+rng.Intn(3); i++ {
		specs = append(specs, grow(0))
	}
	tr, err := New(specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var leaves []string
	for _, p := range tr.Tenants() {
		if n := tr.byPath[p]; len(n.children) == 0 {
			leaves = append(leaves, p)
		}
	}
	return tr, leaves
}

// stepDemand mutates each leaf's demand with persistence: mostly hold,
// sometimes jump between idle / moderate / saturating regimes.
func stepDemand(t *testing.T, rng *rand.Rand, tr *Tree, leaves []string, demand map[string]float64) {
	t.Helper()
	for _, p := range leaves {
		if rng.Float64() < 0.3 {
			switch rng.Intn(3) {
			case 0:
				demand[p] = 0
			case 1:
				demand[p] = tr.cfg.Capacity * rng.Float64() / float64(len(leaves))
			default:
				demand[p] = tr.cfg.Capacity * (0.5 + rng.Float64())
			}
		}
		if err := tr.SetDemand(p, demand[p]); err != nil {
			t.Fatal(err)
		}
	}
}

// checkInvariants asserts the floor and conservation properties on the
// current epoch's state.
func checkInvariants(t *testing.T, tr *Tree, epoch int) {
	t.Helper()
	byPath := map[string]Status{}
	childSum := map[string]float64{}
	rootSum := 0.0
	for _, s := range tr.StatusAll() {
		byPath[s.Path] = s
		if i := lastSlash(s.Path); i >= 0 {
			childSum[s.Path[:i]] += s.Granted
		} else {
			rootSum += s.Granted
		}
	}
	if rootSum > tr.cfg.Capacity+propTol {
		t.Fatalf("epoch %d: Σ top-level grants %g exceeds capacity %g", epoch, rootSum, tr.cfg.Capacity)
	}
	for _, s := range byPath {
		if s.Granted < -propTol {
			t.Fatalf("epoch %d: tenant %s granted %g < 0", epoch, s.Path, s.Granted)
		}
		// Theorem 2 at the tenant level: never below min(demand, floor×slice).
		guarantee := s.MBRFloor * s.Slice
		if s.Demand < guarantee {
			guarantee = s.Demand
		}
		if s.Granted < guarantee-propTol {
			t.Fatalf("epoch %d: tenant %s below MBR floor: granted %g < min(demand %g, %g×slice %g)",
				epoch, s.Path, s.Granted, s.Demand, s.MBRFloor, s.Slice)
		}
	}
	for parent, sum := range childSum {
		if sum > byPath[parent].Granted+propTol {
			t.Fatalf("epoch %d: children of %s hold %g > parent grant %g",
				epoch, parent, sum, byPath[parent].Granted)
		}
	}
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}

// TestPropertyFloorAndConservation: randomized trees × randomized demand
// traces; the floor and conservation invariants must hold on every single
// epoch, including mid-reclaim transients.
func TestPropertyFloorAndConservation(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Capacity:        4 + 60*rng.Float64(),
			DefaultMBRFloor: 0.1 + 0.4*rng.Float64(),
		}
		tr, leaves := randTree(t, rng, cfg)
		demand := map[string]float64{}
		for epoch := 0; epoch < 60; epoch++ {
			stepDemand(t, rng, tr, leaves, demand)
			// Mid-trace arrivals: a brand-new tenant self-registers and
			// must be floored immediately like everyone else.
			if epoch == 20 {
				p := fmt.Sprintf("late%d", seed)
				if _, err := tr.Ensure(p); err != nil {
					t.Fatal(err)
				}
				leaves = append(leaves, p)
				demand[p] = cfg.Capacity
			}
			tr.Rebalance()
			checkInvariants(t, tr, epoch)
		}
	}
}

// TestPropertyConvergence: freeze demand and the economy settles — every
// grant reaches its target (reclaim cycles complete, they don't decay
// forever), and tenants whose whole ancestry is saturated get back exactly
// their deserved share.
func TestPropertyConvergence(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, leaves := randTree(t, rng, Config{Capacity: 32})
		demand := map[string]float64{}
		for epoch := 0; epoch < 25; epoch++ { // churn phase
			stepDemand(t, rng, tr, leaves, demand)
			tr.Rebalance()
		}
		saturate := rng.Float64() < 0.5
		for _, p := range leaves { // freeze phase
			if saturate {
				demand[p] = tr.cfg.Capacity
			}
			if err := tr.SetDemand(p, demand[p]); err != nil {
				t.Fatal(err)
			}
		}
		for epoch := 0; epoch < 40; epoch++ {
			tr.Rebalance()
		}
		for _, s := range tr.StatusAll() {
			if s.Reclaiming {
				t.Errorf("seed %d: tenant %s still mid-reclaim after 40 frozen epochs", seed, s.Path)
			}
			if saturate && math.Abs(s.Granted-s.Deserved) > propTol {
				t.Errorf("seed %d: saturated tenant %s granted %g ≠ deserved %g",
					seed, s.Path, s.Granted, s.Deserved)
			}
		}
	}
}

// TestPropertyLendingBeatsStatic: on every random trace, the lending
// economy serves at least as much demand as static quotas; across the
// suite it must win strictly and by a real margin in aggregate (that is
// the whole point of lending).
func TestPropertyLendingBeatsStatic(t *testing.T) {
	totalLend, totalStatic := 0.0, 0.0
	for seed := int64(200); seed < 230; seed++ {
		servedBoth := [2]float64{}
		for mode := 0; mode < 2; mode++ {
			rng := rand.New(rand.NewSource(seed)) // identical tree + trace per mode
			cfg := Config{Capacity: 16, DisableLending: mode == 1}
			tr, leaves := randTree(t, rng, cfg)
			demand := map[string]float64{}
			for epoch := 0; epoch < 50; epoch++ {
				stepDemand(t, rng, tr, leaves, demand)
				tr.Rebalance()
				for _, p := range leaves {
					g := tr.Granted(p)
					if d := demand[p]; d < g {
						g = d
					}
					servedBoth[mode] += g
				}
			}
		}
		if servedBoth[0] < servedBoth[1]-propTol {
			t.Fatalf("seed %d: lending served %g < static %g", seed, servedBoth[0], servedBoth[1])
		}
		totalLend += servedBoth[0]
		totalStatic += servedBoth[1]
	}
	if totalLend < totalStatic*1.02 {
		t.Fatalf("lending should measurably beat static quotas in aggregate: %g vs %g",
			totalLend, totalStatic)
	}
}

// TestPropertyReclaimBound: the number of epochs to fully restore a
// lender's deserved share is bounded by the halving schedule's length —
// log₂(gap/minStep) plus the snap — independent of how much was lent.
func TestPropertyReclaimBound(t *testing.T) {
	for seed := int64(300); seed < 320; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 8 + 120*rng.Float64()
		tr, err := New([]NodeSpec{{Name: "lend"}, {Name: "busy"}}, Config{Capacity: capacity})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.SetDemand("busy", capacity); err != nil {
			t.Fatal(err)
		}
		tr.Rebalance()
		deserved := tr.Deserved("lend")
		if err := tr.SetDemand("lend", capacity); err != nil {
			t.Fatal(err)
		}
		// gap = deserved; schedule = gap/2, gap/4, … down to 0.01×deserved,
		// then the snap: ⌈log₂(0.5/0.01)⌉ + 1 = 7 epochs, +1 slack.
		bound := int(math.Ceil(math.Log2(0.5/0.01))) + 2
		restored := -1
		for epoch := 1; epoch <= bound; epoch++ {
			tr.Rebalance()
			if math.Abs(tr.Granted("lend")-deserved) <= propTol {
				restored = epoch
				break
			}
		}
		if restored < 0 {
			t.Fatalf("seed %d (capacity %g): lender not restored within %d epochs (granted %g, deserved %g)",
				seed, capacity, bound, tr.Granted("lend"), deserved)
		}
	}
}
