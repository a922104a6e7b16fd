package fault

import (
	"math"
	"testing"

	"rebudget/internal/market"
)

func cleanCurve() []float64 {
	return []float64{1, 0.8, 0.6, 0.45, 0.35, 0.3, 0.3, 0.3}
}

func TestDisabledConfigBuildsNoInjector(t *testing.T) {
	if in := New(Config{}); in != nil {
		t.Fatal("zero config must build a nil injector")
	}
	var in *Injector
	ratio := cleanCurve()
	if in.CorruptCurve(ratio) {
		t.Error("nil injector corrupted a curve")
	}
	for i, v := range ratio {
		if v != cleanCurve()[i] {
			t.Errorf("nil injector mutated ratio[%d]", i)
		}
	}
	u := market.UtilityFunc(func([]float64) float64 { return 1 })
	if got := in.WrapUtility(u); got.Value(nil) != 1 {
		t.Error("nil injector must pass utilities through")
	}
	if in.SolverHook() != nil {
		t.Error("nil injector must return a nil solver hook")
	}
	if in.Stats() != (Stats{}) {
		t.Error("nil injector stats must be zero")
	}
}

func TestCorruptCurveDeterministic(t *testing.T) {
	run := func() ([]float64, Stats) {
		in := New(Config{MonitorRate: 0.5, Seed: 42})
		ratio := cleanCurve()
		for k := 0; k < 20; k++ {
			in.CorruptCurve(ratio)
		}
		return ratio, in.Stats()
	}
	r1, s1 := run()
	r2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if s1.CurveFaults == 0 {
		t.Fatal("rate 0.5 over 20 draws fired no faults")
	}
	for i := range r1 {
		if r1[i] != r2[i] && !(math.IsNaN(r1[i]) && math.IsNaN(r2[i])) {
			t.Fatalf("corruption not deterministic at %d: %v vs %v", i, r1[i], r2[i])
		}
	}
}

func TestCorruptCurveRateOne(t *testing.T) {
	in := New(Config{MonitorRate: 1, Seed: 3})
	for k := 0; k < 50; k++ {
		ratio := cleanCurve()
		if !in.CorruptCurve(ratio) {
			t.Fatal("rate 1 must always corrupt")
		}
		changed := false
		for i, v := range ratio {
			// NaN != anything, so a NaN fault also registers as a change.
			if v != cleanCurve()[i] {
				changed = true
			}
		}
		// A spike on an entry can in principle land back in range, but it
		// still must have changed the value.
		if !changed {
			t.Fatal("corruption reported but curve unchanged")
		}
	}
	if got := in.Stats().CurveFaults; got != 50 {
		t.Errorf("CurveFaults = %d, want 50", got)
	}
}

func TestWrapUtilityPoisonsSomeEvaluations(t *testing.T) {
	in := New(Config{UtilityRate: 0.3, Seed: 9})
	u := in.WrapUtility(market.UtilityFunc(func([]float64) float64 { return 0.7 }))
	nan, ok := 0, 0
	for k := 0; k < 200; k++ {
		if math.IsNaN(u.Value(nil)) {
			nan++
		} else {
			ok++
		}
	}
	if nan == 0 || ok == 0 {
		t.Fatalf("rate 0.3 should mix clean and faulty evaluations, got %d/%d", nan, ok)
	}
	if got := in.Stats().UtilityFaults; got != nan {
		t.Errorf("UtilityFaults = %d, want %d", got, nan)
	}
}

func TestSolverHookStallsRuns(t *testing.T) {
	in := New(Config{SolverRate: 1, Seed: 5})
	hook := in.SolverHook()
	if hook == nil {
		t.Fatal("expected a hook")
	}
	for it := 1; it <= stallIterations; it++ {
		if !hook(it) {
			t.Errorf("stalled run must survive round %d of %d", it, stallIterations)
		}
	}
	if hook(stallIterations + 1) {
		t.Error("stalled run must abort after stallIterations rounds")
	}
	if got := in.Stats().SolverStalls; got != 1 {
		t.Errorf("SolverStalls = %d, want 1", got)
	}

	// Zero rate: no hook at all, so the market pays nothing.
	if New(Config{MonitorRate: 0.1}).SolverHook() != nil {
		t.Error("zero SolverRate must return a nil hook")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNaN: "nan", KindInf: "inf", KindSpike: "spike", KindDropout: "dropout", kindCount: "unknown",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}
