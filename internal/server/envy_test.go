package server

import (
	"math"
	"testing"

	"rebudget/internal/core"
	"rebudget/internal/market"
	"rebudget/internal/metrics"
	"rebudget/internal/numeric"
	"rebudget/internal/workload"
)

// countedUtility counts the evaluations of the utility it wraps and
// forwards its identity, so the class it belongs to is unchanged.
type countedUtility struct {
	inner market.Utility
	calls *int
}

func (u countedUtility) Value(alloc []float64) float64 {
	*u.calls++
	return u.inner.Value(alloc)
}

func (u countedUtility) Identity() (key any, scale float64) {
	if id, ok := u.inner.(market.Identified); ok {
		return id.Identity()
	}
	return nil, 0
}

// keyedUtility is a test function with an identity: players built from one
// key and scale compute one function.
type keyedUtility struct {
	key   *[2]float64 // the function's weights
	scale float64
}

func (u keyedUtility) Value(a []float64) float64 {
	return u.scale * (u.key[0]*math.Sqrt(a[0]) + u.key[1]*math.Log1p(a[1]))
}

func (u keyedUtility) Identity() (key any, scale float64) { return u.key, u.scale }

// envyByClassMatchesPerPlayer checks one outcome: envy-freeness evaluated
// once per utility class (core builds the classes) is the float the
// per-player evaluation returns, bit for bit, and costs at most one
// evaluation per class and distinct bundle. It returns the class count.
func envyByClassMatchesPerPlayer(t *testing.T, name string, out *core.Outcome, players []core.PlayerSpec) int {
	t.Helper()
	calls := 0
	counted := make([]core.PlayerSpec, len(players))
	for i, p := range players {
		p.Utility = countedUtility{inner: p.Utility, calls: &calls}
		counted[i] = p
	}
	byClass, err := out.EnvyFreeness(counted)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	perPlayer, err := metrics.EnvyFreeness(len(players), func(i int, a []float64) float64 {
		return players[i].Utility.Value(a)
	}, out.Allocations, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if math.Float64bits(byClass) != math.Float64bits(perPlayer) {
		t.Fatalf("%s: envy-freeness %v by class, %v per player", name, byClass, perPlayer)
	}
	classes, bundles := map[[2]any]bool{}, map[[4]float64]bool{}
	for i, p := range players {
		key, scale := countedUtility{inner: p.Utility}.Identity()
		if key == nil {
			key = i
		}
		classes[[2]any{key, math.Float64bits(scale)}] = true
		var row [4]float64
		copy(row[:], out.Allocations[i])
		bundles[row] = true
	}
	if max := len(classes) * len(bundles); calls > max {
		t.Fatalf("%s: %d evaluations for %d classes and %d bundles", name, calls, len(classes), len(bundles))
	}
	return len(classes)
}

// TestEnvyFreenessByClass: on every catalog category at 8 and 64 cores,
// under each budget-assigning mechanism, the serving layer's envy-freeness
// — its players wrapped in demand factors, one of them moved off 1 by
// telemetry and so a class of its own — is the per-player float. Random
// markets mixing identified utilities with plain closures, which are never
// classed, agree too.
func TestEnvyFreenessByClass(t *testing.T) {
	mechs := map[string]core.Allocator{"equalbudget": core.EqualBudget{}, "balanced": core.Balanced{},
		"rebudget-20": core.ReBudget{Step: 20}, "rebudget-40": core.ReBudget{Step: 40}}
	for _, cat := range workload.Categories() {
		for _, cores := range []int{8, 64} {
			bundle, err := workload.Generate(cat, cores, numeric.NewRand(uint64(cores)))
			if err != nil {
				t.Fatal(err)
			}
			setup, err := workload.NewSetup(bundle)
			if err != nil {
				t.Fatal(err)
			}
			demand := make([]float64, cores)
			for i := range setup.Players {
				demand[i] = 1
				setup.Players[i].Utility = scaledUtility{inner: setup.Players[i].Utility, scale: &demand[i]}
			}
			demand[cores-1] = 1.25
			for name, mech := range mechs {
				out, err := mech.Allocate(setup.Capacity, setup.Players)
				if err != nil {
					t.Fatalf("%s/%d/%s: %v", cat, cores, name, err)
				}
				classes := envyByClassMatchesPerPlayer(t, string(cat)+"/"+name, out, setup.Players)
				if cores == 64 && classes >= cores {
					t.Fatalf("%s/64/%s: %d classes, the catalog repeats applications", cat, name, classes)
				}
			}
		}
	}

	rng := numeric.NewRand(11)
	for m := 0; m < 200; m++ {
		n := 1 + rng.Intn(80)
		keys := make([]*[2]float64, 1+rng.Intn(4))
		for k := range keys {
			keys[k] = &[2]float64{rng.Float64(), rng.Float64()}
		}
		out := &core.Outcome{Allocations: make([][]float64, n)}
		players := make([]core.PlayerSpec, n)
		for i := range players {
			// A few bundles, some worth nothing to anyone.
			out.Allocations[i] = []float64{float64(rng.Intn(4)), float64(rng.Intn(3))}
			key, scale := keys[rng.Intn(len(keys))], []float64{1, 0.5, 0}[rng.Intn(3)]
			if rng.Intn(3) == 0 {
				w := *key
				players[i].Utility = market.UtilityFunc(func(a []float64) float64 {
					return scale * (w[0]*math.Sqrt(a[0]) + w[1]*math.Log1p(a[1]))
				})
			} else {
				players[i].Utility = keyedUtility{key: key, scale: scale}
			}
		}
		envyByClassMatchesPerPlayer(t, "random market", out, players)
	}
}

// TestEnvyFreenessAllocsNothing: scoring a served 64-core outcome
// allocates nothing — the classes and bundles live on the stack.
func TestEnvyFreenessAllocsNothing(t *testing.T) {
	bundle, err := workload.Generate(workload.CPBB, 64, numeric.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	e, err := newMarketEngine(SessionSpec{Mechanism: "rebudget-20"}, bundle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.step(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := e.last.EnvyFreeness(e.players); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("EnvyFreeness of a 64-player outcome allocates %v times", allocs)
	}
}
