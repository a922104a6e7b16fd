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

// Simulate §4.3's motivating scenario on the execution-driven chip: four
// compute-bound applications share a 4-core CMP, core 0 switches to the
// cache-hungry mcf mid-run (a fresh trace and a cleared monitor), and the
// market re-runs every epoch on the monitored utilities and redirects cache
// to the newcomer within a few epochs.
func ExampleNewChip() {
	var bundle rebudget.Bundle
	bundle.Category = "switch-demo"
	for _, name := range []string{"sixtrack", "hmmer", "eon", "crafty"} {
		spec, err := rebudget.LookupApp(name)
		if err != nil {
			log.Fatal(err)
		}
		bundle.Apps = append(bundle.Apps, spec)
	}

	cfg := rebudget.DefaultSimConfig(4)
	cfg.Epochs = 16
	chip, err := rebudget.NewChip(cfg, bundle)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("cores 0-3 run compute-bound apps; at epoch 8, core 0 switches to mcf")
	res, err := chip.RunWithSwitches(rebudget.EqualBudget{}, []rebudget.SwitchEvent{
		{Epoch: 8, Core: 0, App: "mcf"},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nmechanism %s after the switch:\n", res.Mechanism)
	fmt.Printf("%-6s %-10s %12s %12s %12s\n", "core", "app", "norm perf", "Δregions", "Δwatts")
	for i := range res.NormPerf {
		fmt.Printf("%-6d %-10s %12.3f %12.2f %12.2f\n",
			i, bundle.Apps[i].Name, res.NormPerf[i],
			res.FinalOutcome.Allocations[i][0], res.FinalOutcome.Allocations[i][1])
	}
	fmt.Println("\nthe market followed the demand shift: the newcomer holds the")
	fmt.Println("cache its peers never wanted, paid for from the same equal budget")
	// Output:
	// cores 0-3 run compute-bound apps; at epoch 8, core 0 switches to mcf
	//
	// mechanism EqualBudget after the switch:
	// core   app           norm perf     Δregions       Δwatts
	// 0      mcf               0.247         6.13         3.69
	// 1      hmmer             0.806         1.87        10.26
	// 2      eon               0.827         2.00        10.05
	// 3      crafty            0.806         2.00        10.05
	//
	// the market followed the demand shift: the newcomer holds the
	// cache its peers never wanted, paid for from the same equal budget
}
