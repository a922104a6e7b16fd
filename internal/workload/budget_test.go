//go:build !race

package workload

import (
	"runtime"
	"testing"

	"rebudget/internal/core"
	"rebudget/internal/numeric"
)

// bytesPerCall is the heap bytes one call of f allocates, averaged over
// calls after a warm-up call.
func bytesPerCall(calls int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(calls)
}

// budgetBundle is the 64-core CPBB bundle of BenchmarkReBudget64 and
// BenchmarkNewSetup64.
func budgetBundle(t *testing.T) Bundle {
	t.Helper()
	b, err := Generate(CPBB, 64, numeric.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Heap bytes repeat to within a few hundred from run to run, so these gate
// in tier-1; each budget is 1.5 × what the code measures. (The race
// detector changes what allocates; hence the build tag.)

// A warm 64-core setup profiles nothing: every catalog application's
// profile comes from the process-wide table, and a setup pays for its
// players, twins and slices: 14.4 kB. Profiling each distinct application
// per call read 139.8 kB; twins that each carried nine memoizing hull
// evaluators, in slices grown by append, read 68.5 kB.
func TestNewSetupByteBudget(t *testing.T) {
	const budget = 21_600
	b := budgetBundle(t)
	per := bytesPerCall(50, func() {
		if _, err := NewSetup(b); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d B allocated per warm 64-core NewSetup", per)
	if per > budget {
		t.Fatalf("a warm 64-core NewSetup allocates %d B, budget %d B", per, budget)
	}
}

// ReBudget-20 re-converges every budget step into one Equilibrium: 17.0 kB.
// A fresh Equilibrium per step read 51.1 kB.
func TestReBudgetByteBudget(t *testing.T) {
	const budget = 25_500
	s, err := NewSetup(budgetBundle(t))
	if err != nil {
		t.Fatal(err)
	}
	per := bytesPerCall(50, func() {
		if _, err := (core.ReBudget{Step: 20}).Allocate(s.Capacity, s.Players); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d B allocated per 64-core ReBudget-20 Allocate", per)
	if per > budget {
		t.Fatalf("a 64-core ReBudget-20 Allocate allocates %d B, budget %d B", per, budget)
	}
}
