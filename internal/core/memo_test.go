package core_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"rebudget/internal/core"
	"rebudget/internal/market"
	"rebudget/internal/numeric"
	"rebudget/internal/workload"
)

// memoMechanisms are the mechanisms whose cold equal-budget search the memo
// serves: Figure 4's three and the ablations' ReBudget variants.
func memoMechanisms() []core.Allocator {
	return []core.Allocator{
		core.EqualBudget{},
		core.ReBudget{Step: 20},
		core.ReBudget{Step: 40},
		core.ReBudget{Step: 20, LambdaThreshold: 0.25},
		core.ReBudget{Step: 20, LambdaThreshold: 0.75},
		core.ReBudget{Step: 20, LambdaThreshold: 0.9},
		core.ReBudget{Step: 20, MBRFloor: 0.6125, NoBackoff: true},
	}
}

// memoBundles is every catalog category at 8 and 64 cores, plus Figure 3's
// bundle.
func memoBundles(t *testing.T) []workload.Bundle {
	t.Helper()
	fig3, err := workload.Figure3Bundle()
	if err != nil {
		t.Fatal(err)
	}
	bundles := []workload.Bundle{fig3}
	for _, cores := range []int{8, 64} {
		bs, err := workload.GenerateAll(cores, 1, 48)
		if err != nil {
			t.Fatal(err)
		}
		bundles = append(bundles, bs...)
	}
	return bundles
}

// searched forces a search: the memo refuses any configuration that
// carries a RoundHook.
func searched(a core.Allocator) core.Allocator {
	return core.WithMarketConfig(a, func(mc market.Config) market.Config {
		mc.RoundHook = func(int) bool { return true }
		return mc
	})
}

// counted installs an Observer that counts a mechanism's searches.
func counted(a core.Allocator, n *int) core.Allocator {
	return core.WithMarketConfig(a, func(mc market.Config) market.Config {
		mc.Observer = func(int, int, time.Duration) { *n++ }
		return mc
	})
}

// sameBits reports whether a and b are equal with every float compared bit
// for bit, field by field and element by element.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		return sameBits(a.Elem(), b.Elem())
	}
	return a.Interface() == b.Interface()
}

// checkHits runs every memo mechanism on a fresh setup of b after
// EqualBudget has stored its run, compares each outcome with the searched
// one, and counts the mechanisms whose cold run missed the memo. A hit
// shows as one search fewer than EquilibriumRuns.
func checkHits(b workload.Bundle, want map[string]*core.Outcome) (misses int, err error) {
	s, err := workload.NewSetup(b)
	if err != nil {
		return 0, err
	}
	if _, err := (core.EqualBudget{}).Allocate(s.Capacity, s.Players); err != nil {
		return 0, err
	}
	for _, m := range memoMechanisms() {
		n := 0
		got, err := counted(m, &n).Allocate(s.Capacity, s.Players)
		if err != nil {
			return 0, err
		}
		if n != got.EquilibriumRuns-1 {
			misses++
		}
		if w := want[fmt.Sprintf("%+v", m)]; !sameBits(reflect.ValueOf(got), reflect.ValueOf(w)) {
			return 0, fmt.Errorf("%s: the memo's outcome diverged from the search\ngot:  %+v\nwant: %+v", m.Name(), got, w)
		}
	}
	return misses, nil
}

// searchedOutcomes runs every memo mechanism on b under a RoundHook.
func searchedOutcomes(t *testing.T, b workload.Bundle) map[string]*core.Outcome {
	t.Helper()
	s, err := workload.NewSetup(b)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*core.Outcome{}
	for _, m := range memoMechanisms() {
		n := 0
		out, err := counted(searched(m), &n).Allocate(s.Capacity, s.Players)
		if err != nil {
			t.Fatal(err)
		}
		if n != out.EquilibriumRuns {
			t.Fatalf("%s under a RoundHook: %d searches for %d runs", m.Name(), n, out.EquilibriumRuns)
		}
		want[fmt.Sprintf("%+v", m)] = out
	}
	return want
}

// TestColdMemoHitsMatchSearch: on every bundle, every mechanism the memo
// serves gives the same Outcome, bit for bit, from a memo hit as from the
// search a RoundHook forces.
func TestColdMemoHitsMatchSearch(t *testing.T) {
	for k, b := range memoBundles(t) {
		t.Run(fmt.Sprintf("%d-%s-%d", k, b.Category, len(b.Apps)), func(t *testing.T) {
			misses, err := checkHits(b, searchedOutcomes(t, b))
			if err != nil {
				t.Fatal(err)
			}
			if misses > 0 {
				t.Fatalf("%d of %d mechanisms searched their cold run instead of hitting the memo",
					misses, len(memoMechanisms()))
			}
		})
	}
}

// TestColdMemoParallelHits is TestColdMemoHitsMatchSearch from GOMAXPROCS
// (at least two) goroutines at once, each with setups of its own (utilities
// are not safe for concurrent calls) over the shared catalog profiles.
// Every outcome must match the search; the goroutines' stores may evict one
// another's entries, so hits are only required to happen.
func TestColdMemoParallelHits(t *testing.T) {
	bundles, err := workload.GenerateAll(64, 1, 49)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]map[string]*core.Outcome, len(bundles))
	for k, b := range bundles {
		want[k] = searchedOutcomes(t, b)
	}
	goroutines := max(2, runtime.GOMAXPROCS(0))
	errs := make([]error, goroutines)
	misses := make([]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range bundles {
				k := (k + g) % len(bundles)
				n, err := checkHits(bundles[k], want[k])
				if err != nil {
					errs[g] = fmt.Errorf("bundle %d: %w", k, err)
					return
				}
				misses[g] += n
			}
		}()
	}
	wg.Wait()
	total := 0
	for g, err := range errs {
		if err != nil {
			t.Error(err)
		}
		total += misses[g]
	}
	if cold := goroutines * len(bundles) * len(memoMechanisms()); total == cold {
		t.Fatalf("none of %d cold runs hit the memo", cold)
	}
}

// TestColdMemoSolvesOncePerSetup pins the saving: Figure 4's four market
// mechanisms over one setup run one cold equal-budget search between them.
func TestColdMemoSolvesOncePerSetup(t *testing.T) {
	b, err := workload.Generate(workload.CPBB, 64, numeric.NewRand(50))
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.NewSetup(b)
	if err != nil {
		t.Fatal(err)
	}
	core.ResetColdMemo()
	searches, runs := 0, 0
	for _, m := range []core.Allocator{core.EqualBudget{}, core.Balanced{}, core.ReBudget{Step: 20}, core.ReBudget{Step: 40}} {
		out, err := counted(m, &searches).Allocate(s.Capacity, s.Players)
		if err != nil {
			t.Fatal(err)
		}
		runs += out.EquilibriumRuns
	}
	// Every run but ReBudget-20's and ReBudget-40's cold one is a search.
	if searches != runs-2 {
		t.Fatalf("%d searches for %d equilibrium runs, want %d: one cold equal-budget search per setup",
			searches, runs, runs-2)
	}
}

// TestColdMemoKeyCoversSearchFields fails when market.Config gains a field,
// so the memo's key (core.searchFields) is revisited along with it: a field
// the equilibrium depends on must join the key.
func TestColdMemoKeyCoversSearchFields(t *testing.T) {
	var fields []string
	ct := reflect.TypeOf(market.Config{})
	for i := 0; i < ct.NumField(); i++ {
		fields = append(fields, ct.Field(i).Name)
	}
	want := []string{"MinShiftFraction", "Optimizer", "GreedyQuanta", "RoundHook", "Workers", "Observer"}
	if !reflect.DeepEqual(fields, want) {
		t.Fatalf("market.Config fields %v, the memo key was written for %v", fields, want)
	}
}

// TestColdMemoRefusesUnnamedUtilities: a utility that names no function
// never reaches the memo, so every run is a search.
func TestColdMemoRefusesUnnamedUtilities(t *testing.T) {
	players := []core.PlayerSpec{
		{Name: "a", Utility: market.UtilityFunc(func(x []float64) float64 { return math.Sqrt(x[0]) + math.Sqrt(x[1]) })},
		{Name: "b", Utility: market.UtilityFunc(func(x []float64) float64 { return 2*math.Sqrt(x[0]) + math.Sqrt(x[1]) })},
	}
	capacity := []float64{8, 8}
	for range 2 {
		n := 0
		out, err := counted(core.EqualBudget{}, &n).Allocate(capacity, players)
		if err != nil {
			t.Fatal(err)
		}
		if n != out.EquilibriumRuns {
			t.Fatalf("%d searches for %d runs: an unnamed utility hit the memo", n, out.EquilibriumRuns)
		}
	}
}

// TestColdMemoKeyedOnEveryInput: after one setup's run is stored, changing
// any one input the equilibrium depends on — a player's budget weight, a
// search field, the capacity — is a miss, and the search it runs gives the
// RoundHook-forced outcome.
func TestColdMemoKeyedOnEveryInput(t *testing.T) {
	bs, err := workload.GenerateAll(8, 1, 51)
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.NewSetup(bs[0])
	if err != nil {
		t.Fatal(err)
	}
	core.ResetColdMemo()
	if _, err := (core.EqualBudget{}).Allocate(s.Capacity, s.Players); err != nil {
		t.Fatal(err)
	}
	weighted := append([]core.PlayerSpec(nil), s.Players...)
	weighted[0].BudgetWeight = 2
	wider := append([]float64(nil), s.Capacity...)
	wider[0] *= 1.5
	for _, tc := range []struct {
		name     string
		mech     core.Allocator
		capacity []float64
		players  []core.PlayerSpec
	}{
		{"weight", core.EqualBudget{}, s.Capacity, weighted},
		{"search", core.EqualBudget{Market: market.Config{MinShiftFraction: 0.05}}, s.Capacity, s.Players},
		{"capacity", core.EqualBudget{}, wider, s.Players},
	} {
		n := 0
		got, err := counted(tc.mech, &n).Allocate(tc.capacity, tc.players)
		if err != nil {
			t.Fatal(err)
		}
		want, err := searched(tc.mech).Allocate(tc.capacity, tc.players)
		if err != nil {
			t.Fatal(err)
		}
		if n != got.EquilibriumRuns {
			t.Errorf("%s: %d searches for %d runs: another input's entry was hit", tc.name, n, got.EquilibriumRuns)
		}
		if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Errorf("%s: outcome diverged from the search\ngot:  %+v\nwant: %+v", tc.name, got, want)
		}
	}
}

// TestColdMemoSkipsUnconverged: a cold run that hit the §6.4 fail-safe is
// not stored, so every later caller searches it again.
func TestColdMemoSkipsUnconverged(t *testing.T) {
	bs, err := workload.GenerateAll(8, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.NewSetup(bs[80]) // a CPBB bundle whose EqualBudget stops at 30 rounds
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []core.Allocator{core.EqualBudget{}, core.EqualBudget{}, core.ReBudget{Step: 20}} {
		n := 0
		out, err := counted(m, &n).Allocate(s.Capacity, s.Players)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() == "EqualBudget" && out.Converged {
			t.Fatal("the bundle's EqualBudget converged: pick another")
		}
		if n != out.EquilibriumRuns {
			t.Fatalf("%s: %d searches for %d runs: an unconverged run was stored", m.Name(), n, out.EquilibriumRuns)
		}
	}
}
