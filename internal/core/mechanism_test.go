package core

import (
	"math"
	"testing"
	"time"
)

// TestReBudgetRefusesNonFinite: a non-finite Step, MBRFloor or
// MinEnvyFreeness is an error from both Allocate and EffectiveMBRFloor,
// returned promptly. Step +Inf would never leave MaxTotalCut's halving
// loop, so every call runs under a deadline.
func TestReBudgetRefusesNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, r := range []ReBudget{
		{Step: inf}, {Step: nan}, {Step: math.Inf(-1)},
		{MBRFloor: inf}, {MBRFloor: nan},
		{MinEnvyFreeness: inf}, {MinEnvyFreeness: nan},
		{Step: 20, MBRFloor: nan},
	} {
		done := make(chan [2]error, 1)
		go func() {
			_, floorErr := r.EffectiveMBRFloor()
			_, allocErr := r.Allocate(testCapacity, heterogeneousPlayers())
			done <- [2]error{floorErr, allocErr}
		}()
		select {
		case errs := <-done:
			if errs[0] == nil || errs[1] == nil {
				t.Errorf("%+v: EffectiveMBRFloor err %v, Allocate err %v; want both refused", r, errs[0], errs[1])
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%+v: not refused within 5 s", r)
		}
	}
}

// TestParseMechanism pins the grammar: every name resolves to its
// mechanism, and a ReBudget configuration Allocate would refuse is refused
// at parse time.
func TestParseMechanism(t *testing.T) {
	for _, tc := range []struct {
		name  string
		minEF float64
		want  string // Allocator.Name(); "" means refused
	}{
		{"equalshare", 0, "EqualShare"},
		{"equalbudget", 0, "EqualBudget"},
		{"balanced", 0, "Balanced"},
		{"maxefficiency", 0, "MaxEfficiency"},
		{"rebudget-20", 0, "ReBudget-20"},
		{"rebudget-0x1p-3", 0, "ReBudget-0.125"},
		{"rebudget", 0.5, "ReBudget"},
		{"rebudget", 0, ""},
		{"rebudget", 0.9, ""}, // above Theorem 2's 2√2−2 cap
		{"rebudget-Inf", 0, ""},
		{"rebudget-NaN", 0, ""},
		{"rebudget--5", 0, ""},
		{"rebudget-0", 0, ""},
		{"rebudget-1e400", 0, ""},
		{"rebudget-", 0, ""},
		{"lottery", 0, ""},
	} {
		a, err := ParseMechanism(tc.name, tc.minEF)
		switch {
		case tc.want == "" && err == nil:
			t.Errorf("%q (min_ef %g): accepted as %s, want refused", tc.name, tc.minEF, a.Name())
		case tc.want != "" && err != nil:
			t.Errorf("%q (min_ef %g): %v", tc.name, tc.minEF, err)
		case tc.want != "" && a.Name() != tc.want:
			t.Errorf("%q: parsed as %s, want %s", tc.name, a.Name(), tc.want)
		}
	}
}

// FuzzParseMechanism: every accepted name yields an allocator whose
// fairness floor resolves, finite and within [0, 1].
func FuzzParseMechanism(f *testing.F) {
	for _, name := range []string{
		"rebudget-Inf", "rebudget-NaN", "rebudget--5", "rebudget-0",
		"rebudget-1e308", "rebudget-5e-324", "rebudget-0x1p-3",
	} {
		f.Add(name, 0.0)
	}
	f.Add("rebudget", 0.5)
	f.Add("equalshare", 0.0)
	f.Fuzz(func(t *testing.T, name string, minEF float64) {
		a, err := ParseMechanism(name, minEF)
		if err != nil {
			return
		}
		r, ok := a.(ReBudget)
		if !ok {
			return
		}
		floor, err := r.EffectiveMBRFloor()
		if err != nil {
			t.Fatalf("%q (min_ef %g): accepted, but EffectiveMBRFloor fails: %v", name, minEF, err)
		}
		if math.IsNaN(floor) || floor < 0 || floor > 1 {
			t.Fatalf("%q (min_ef %g): MBR floor %g outside [0, 1]", name, minEF, floor)
		}
	})
}
