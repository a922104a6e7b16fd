package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMUR(t *testing.T) {
	if _, err := MUR(nil); err == nil {
		t.Error("empty lambdas accepted")
	}
	if _, err := MUR([]float64{1, -1}); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := MUR([]float64{math.NaN()}); err == nil {
		t.Error("NaN lambda accepted")
	}
	got, err := MUR([]float64{1, 2, 4})
	if err != nil || math.Abs(got-0.25) > 1e-12 {
		t.Errorf("MUR = %g (%v), want 0.25", got, err)
	}
	got, _ = MUR([]float64{3, 3, 3})
	if got != 1 {
		t.Errorf("identical lambdas should give MUR 1, got %g", got)
	}
	got, _ = MUR([]float64{0, 0})
	if got != 1 {
		t.Errorf("all-zero lambdas convention: MUR = %g, want 1", got)
	}
	got, _ = MUR([]float64{0, 5})
	if got != 0 {
		t.Errorf("zero min lambda: MUR = %g, want 0", got)
	}
}

func TestMBR(t *testing.T) {
	if _, err := MBR(nil); err == nil {
		t.Error("empty budgets accepted")
	}
	got, err := MBR([]float64{61.25, 100})
	if err != nil || math.Abs(got-0.6125) > 1e-12 {
		t.Errorf("MBR = %g (%v), want 0.6125", got, err)
	}
	got, _ = MBR([]float64{100, 100, 100})
	if got != 1 {
		t.Errorf("equal budgets MBR = %g, want 1", got)
	}
}

func TestPoALowerBoundTheorem1(t *testing.T) {
	// Figure 1 left: the bound rises linearly to 0.5 at MUR = 0.5, then
	// as 1 − 1/(4·MUR) up to 0.75 at MUR = 1.
	cases := []struct{ mur, want float64 }{
		{0, 0},
		{0.25, 0.25},
		{0.5, 0.5},
		{0.75, 1 - 1.0/3},
		{1, 0.75},
		{-1, 0},   // clamped
		{2, 0.75}, // clamped
	}
	for _, c := range cases {
		if got := PoALowerBound(c.mur); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PoALowerBound(%g) = %g, want %g", c.mur, got, c.want)
		}
	}
}

func TestPoALowerBoundContinuousAtHalf(t *testing.T) {
	lo := PoALowerBound(0.5 - 1e-9)
	hi := PoALowerBound(0.5 + 1e-9)
	if math.Abs(lo-hi) > 1e-6 {
		t.Errorf("Theorem 1 bound discontinuous at 0.5: %g vs %g", lo, hi)
	}
}

func TestEnvyFreenessBoundTheorem2(t *testing.T) {
	// Equal budgets (MBR=1) recover Zhang's 0.828 (Lemma 3).
	if got := EnvyFreenessBound(1); math.Abs(got-(2*math.Sqrt2-2)) > 1e-12 {
		t.Errorf("EnvyFreenessBound(1) = %g, want 0.8284", got)
	}
	if got := EnvyFreenessBound(0); got != 0 {
		t.Errorf("EnvyFreenessBound(0) = %g, want 0", got)
	}
	// The paper's §6.2 examples: ReBudget-20 min budget 61.25 → 0.53;
	// ReBudget-40 min budget ≈20 → 0.19.
	if got := EnvyFreenessBound(0.6125); math.Abs(got-0.53) > 0.02 {
		t.Errorf("EnvyFreenessBound(0.6125) = %g, want ≈0.53", got)
	}
	if got := EnvyFreenessBound(0.20); math.Abs(got-0.19) > 0.01 {
		t.Errorf("EnvyFreenessBound(0.20) = %g, want ≈0.19", got)
	}
}

func TestMinMBRForEnvyFreenessInverse(t *testing.T) {
	for _, c := range []float64{0, 0.1, 0.3, 0.53, 0.8, 2*math.Sqrt2 - 2} {
		mbr, err := MinMBRForEnvyFreeness(c)
		if err != nil {
			t.Fatalf("MinMBRForEnvyFreeness(%g): %v", c, err)
		}
		if got := EnvyFreenessBound(mbr); math.Abs(got-c) > 1e-9 {
			t.Errorf("roundtrip failed: c=%g → mbr=%g → %g", c, mbr, got)
		}
	}
	if _, err := MinMBRForEnvyFreeness(-0.1); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := MinMBRForEnvyFreeness(0.9); err == nil {
		t.Error("unreachable target accepted")
	}
}

func TestEfficiency(t *testing.T) {
	if Efficiency(nil) != 0 {
		t.Error("empty efficiency should be 0")
	}
	if got := Efficiency([]float64{0.2, 0.3}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Efficiency = %g", got)
	}
}

// linear utility over two resources for envy tests.
func linearValue(weights [][]float64) ValueFunc {
	return func(i int, alloc []float64) float64 {
		s := 0.0
		for j, w := range weights[i] {
			s += w * alloc[j]
		}
		return s
	}
}

func TestEnvyFreenessPerfect(t *testing.T) {
	// Two players each holding exactly what they want: EF = 1.
	v := linearValue([][]float64{{1, 0}, {0, 1}})
	allocs := [][]float64{{10, 0}, {0, 10}}
	got, err := EnvyFreeness(2, v, allocs, nil)
	if err != nil || got != 1 {
		t.Errorf("EF = %g (%v), want 1", got, err)
	}
}

func TestEnvyFreenessEnvious(t *testing.T) {
	// Both value resource 0 only; player 1 holds 3× more of it.
	v := linearValue([][]float64{{1, 0}, {1, 0}})
	allocs := [][]float64{{5, 0}, {15, 0}}
	got, err := EnvyFreeness(2, v, allocs, nil)
	if err != nil || math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("EF = %g (%v), want 1/3", got, err)
	}
}

func TestEnvyFreenessZeroOwnUtility(t *testing.T) {
	// Player 0 has nothing but values player 1's bundle: infinite envy → 0.
	v := linearValue([][]float64{{1, 0}, {1, 0}})
	allocs := [][]float64{{0, 0}, {15, 0}}
	got, err := EnvyFreeness(2, v, allocs, nil)
	if err != nil || got != 0 {
		t.Errorf("EF = %g (%v), want 0", got, err)
	}
}

func TestEnvyFreenessAllZero(t *testing.T) {
	v := linearValue([][]float64{{0, 0}, {0, 0}})
	allocs := [][]float64{{1, 2}, {3, 4}}
	got, err := EnvyFreeness(2, v, allocs, nil)
	if err != nil || got != 1 {
		t.Errorf("degenerate EF = %g (%v), want 1", got, err)
	}
}

func TestEnvyFreenessValidation(t *testing.T) {
	v := linearValue([][]float64{{1, 0}})
	if _, err := EnvyFreeness(2, v, [][]float64{{1, 0}}, nil); err == nil {
		t.Error("mismatched allocation count accepted")
	}
	if _, err := EnvyFreeness(0, v, nil, nil); err == nil {
		t.Error("zero players accepted")
	}
	two := [][]float64{{1, 0}, {0, 1}}
	for _, rep := range [][]int{{0}, {1, 1}, {0, 2}, {-1, 0}} {
		if _, err := EnvyFreeness(2, v, two, rep); err == nil {
			t.Errorf("class representatives %v accepted", rep)
		}
	}
}

// Property: EF is always in [0, 1] for non-negative utilities, and equals 1
// when all players share one allocation.
func TestEnvyFreenessProperties(t *testing.T) {
	f := func(ws [4]float64, as [4]float64) bool {
		weights := [][]float64{
			{math.Abs(math.Mod(ws[0], 3)), math.Abs(math.Mod(ws[1], 3))},
			{math.Abs(math.Mod(ws[2], 3)), math.Abs(math.Mod(ws[3], 3))},
		}
		v := linearValue(weights)
		allocs := [][]float64{
			{math.Abs(math.Mod(as[0], 10)), math.Abs(math.Mod(as[1], 10))},
			{math.Abs(math.Mod(as[2], 10)), math.Abs(math.Mod(as[3], 10))},
		}
		ef, err := EnvyFreeness(2, v, allocs, nil)
		if err != nil {
			return false
		}
		if ef < 0 || ef > 1 {
			return false
		}
		same := [][]float64{allocs[0], allocs[0]}
		ef2, err := EnvyFreeness(2, v, same, nil)
		return err == nil && ef2 == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Theorem 1 bound is monotone non-decreasing in MUR; Theorem 2
// bound monotone in MBR.
func TestBoundsMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 1))
		b = math.Abs(math.Mod(b, 1))
		if a > b {
			a, b = b, a
		}
		return PoALowerBound(a) <= PoALowerBound(b)+1e-12 &&
			EnvyFreenessBound(a) <= EnvyFreenessBound(b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// envyFreenessAllPairs is Definition 3 evaluated the long way: every player
// against every player's row, repeated rows included.
func envyFreenessAllPairs(n int, value ValueFunc, allocs [][]float64) float64 {
	ef := math.Inf(1)
	for i := 0; i < n; i++ {
		own := value(i, allocs[i])
		for j := 0; j < n; j++ {
			other := value(i, allocs[j])
			switch {
			case other == 0:
			case own == 0:
				return 0
			default:
				ef = math.Min(ef, own/other)
			}
		}
	}
	if math.IsInf(ef, 1) {
		return 1
	}
	return ef
}

// TestEnvyFreenessOverDistinctRows: evaluating each bit-distinct bundle once
// per player returns the same float as all pairs — the zero-utility cases
// included — and costs players × distinct evaluations (plus each player's
// own), on markets on either side of the 64-row stack buffer.
func TestEnvyFreenessOverDistinctRows(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name     string
		n        int
		row      func(i int) []float64
		weight   func(i int) float64
		distinct int
	}{
		{"64 players, 5 bundles", 64, func(i int) []float64 { return []float64{float64(i%5) + 1, float64((i*3)%5) + 0.5} },
			func(i int) float64 { return 1 + float64(i%7) }, 5},
		{"all different", 9, func(i int) []float64 { return []float64{float64(i) + 1, 2} },
			func(i int) float64 { return 1 }, 9},
		{"one bundle", 8, func(int) []float64 { return []float64{3, 3} }, func(i int) float64 { return float64(i + 1) }, 1},
		{"one class on different bundles", 3, func(i int) []float64 { return []float64{float64(3-i) * 2, 1} },
			func(int) float64 { return 1 }, 3},
		{"+0 and −0 are different rows", 6, func(i int) []float64 { return []float64{[]float64{0, negZero}[i%2], 1} },
			func(i int) float64 { return 1 }, 2},
		{"a player that values nothing", 12, func(i int) []float64 { return []float64{float64(i%3) + 1, 1} },
			func(i int) float64 { return float64(i % 4) }, 3},
		{"a bundle nobody values", 12, func(i int) []float64 { return []float64{float64(i % 3), 0} },
			func(i int) float64 { return 1 }, 3},
		{"past the stack buffer", 150, func(i int) []float64 { return []float64{float64(i%70) + 1, 1} },
			func(i int) float64 { return 1 + float64(i%3) }, 70},
	} {
		allocs := make([][]float64, tc.n)
		for i := range allocs {
			allocs[i] = tc.row(i)
		}
		calls := 0
		value := func(i int, a []float64) float64 {
			calls++
			return tc.weight(i) * math.Sqrt(a[0]) * (1 + a[1])
		}
		got, err := EnvyFreeness(tc.n, value, allocs, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		evals := calls
		if want := envyFreenessAllPairs(tc.n, value, allocs); got != want {
			t.Errorf("%s: envy-freeness %v over distinct rows, %v over all pairs", tc.name, got, want)
		}
		if max := tc.n * tc.distinct; evals > max {
			t.Errorf("%s: %d evaluations for %d players and %d distinct bundles, want at most %d",
				tc.name, evals, tc.n, tc.distinct, max)
		}
		// Players of equal weight compute one function: as classes, each
		// representative is evaluated once per bundle, to the same float.
		rep, classes := make([]int, tc.n), 0
		for i := range rep {
			rep[i] = i
			for j := 0; j < i; j++ {
				if tc.weight(j) == tc.weight(i) {
					rep[i] = j
					break
				}
			}
			if rep[i] == i {
				classes++
			}
		}
		calls = 0
		byClass, err := EnvyFreeness(tc.n, value, allocs, rep)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if math.Float64bits(byClass) != math.Float64bits(got) {
			t.Errorf("%s: envy-freeness %v by class, %v per player", tc.name, byClass, got)
		}
		if max := classes * tc.distinct; calls > max {
			t.Errorf("%s: %d evaluations for %d classes and %d distinct bundles, want at most %d",
				tc.name, calls, classes, tc.distinct, max)
		}
	}
}
