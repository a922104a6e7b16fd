package rebudget_test

import (
	"fmt"
	"log"

	"rebudget"
)

// Allocate cache and power among the paper's Figure 3 bundle with ReBudget
// and read the efficiency/fairness diagnostics.
func ExampleReBudget() {
	// The 8-core BBPC case-study bundle from the paper (§6.1.1):
	// apsi×2, swim×2, mcf×2, hmmer, sixtrack.
	bundle, err := rebudget.Figure3Bundle()
	if err != nil {
		log.Fatal(err)
	}

	// Profile each application analytically and assemble the market:
	// capacities are the cache regions and watts beyond the free
	// per-core floors (one 128 kB region + 800 MHz power).
	setup, err := rebudget.NewSetup(bundle)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("market: %.0f cache regions and %.1f W to allocate across %d players\n\n",
		setup.Capacity[0], setup.Capacity[1], len(setup.Players))

	// ReBudget with the paper's "step" knob: larger steps trade fairness
	// for efficiency.
	out, err := rebudget.ReBudget{Step: 20}.Allocate(setup.Capacity, setup.Players)
	if err != nil {
		log.Fatal(err)
	}

	ef, err := out.EnvyFreeness(setup.Players)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s allocation:\n", out.Mechanism)
	fmt.Printf("  weighted speedup: %.3f\n", out.Efficiency())
	fmt.Printf("  envy-freeness:    %.3f (Theorem 2 guarantees ≥ %.3f)\n", ef, out.EFBound())
	fmt.Printf("  MUR %.3f → efficiency is provably ≥ %.0f%% of optimal (Theorem 1)\n\n",
		out.MUR, out.PoABound()*100)

	fmt.Printf("%-14s %8s %10s %10s %10s\n", "player", "budget", "Δregions", "Δwatts", "utility")
	for i, p := range setup.Players {
		fmt.Printf("%-14s %8.2f %10.2f %10.2f %10.3f\n",
			p.Name, out.Budgets[i], out.Allocations[i][0], out.Allocations[i][1], out.Utilities[i])
	}
	// Output:
	// market: 24 cache regions and 68.3 W to allocate across 8 players
	//
	// ReBudget-20 allocation:
	//   weighted speedup: 6.199
	//   envy-freeness:    0.933 (Theorem 2 guarantees ≥ 0.608)
	//   MUR 0.771 → efficiency is provably ≥ 68% of optimal (Theorem 1)
	//
	// player           budget   Δregions     Δwatts    utility
	// apsi#0           100.00       4.15       7.20      0.732
	// apsi#1           100.00       4.15       7.20      0.732
	// swim#2            70.00       1.05       9.19      0.920
	// swim#3            70.00       1.05       9.19      0.920
	// mcf#4            100.00       5.76       3.60      0.530
	// mcf#5            100.00       5.76       3.60      0.530
	// hmmer#6          100.00       1.04      14.15      0.924
	// sixtrack#7       100.00       1.04      14.15      0.911
}
