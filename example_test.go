package rebudget_test

import (
	"fmt"
	"log"
	"math"

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

// Sweep ReBudget's two knobs — the step size and the administrator's
// envy-freeness floor — and print the efficiency/fairness frontier they
// trace (§6.2: "system designers can use the step as a knob to trade off one
// for the other"). Every row of the second sweep checks Theorem 2: the
// measured envy-freeness never falls below the floor asked for.
func ExampleReBudget_knobs() {
	// The paper's BBPC case-study bundle (§6.1.1) — the category with the
	// most headroom for budget reassignment. Note that per-bundle results
	// are not guaranteed monotone in the knob (§3.2); the aggregate trend
	// across many bundles is (see cmd/rebudget-bench -exp fig4).
	pick, err := rebudget.Figure3Bundle()
	if err != nil {
		log.Fatal(err)
	}
	setup, err := rebudget.NewSetup(pick)
	if err != nil {
		log.Fatal(err)
	}
	printRow := func(out *rebudget.Outcome) {
		ef, err := out.EnvyFreeness(setup.Players)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %10.3f %8.3f %8.3f %10.3f\n",
			out.Mechanism, out.Efficiency(), ef, out.MBR, out.EFBound())
	}

	fmt.Println("knob 1: step aggressiveness (initial budget cut)")
	fmt.Printf("%-14s %10s %8s %8s %10s\n", "mechanism", "speedup", "EF", "MBR", "EF bound")
	base, err := rebudget.EqualBudget{}.Allocate(setup.Capacity, setup.Players)
	if err != nil {
		log.Fatal(err)
	}
	printRow(base)
	for _, step := range []float64{5, 10, 20, 40, 60} {
		out, err := rebudget.ReBudget{Step: step}.Allocate(setup.Capacity, setup.Players)
		if err != nil {
			log.Fatal(err)
		}
		printRow(out)
	}

	fmt.Println("\nknob 2: administrator's fairness floor (Theorem 2 → MBR floor)")
	fmt.Printf("%-14s %10s %8s %8s %10s\n", "min EF", "speedup", "EF", "MBR", "EF bound")
	for _, minEF := range []float64{0.8, 0.6, 0.4, 0.2} {
		out, err := rebudget.ReBudget{MinEnvyFreeness: minEF}.Allocate(setup.Capacity, setup.Players)
		if err != nil {
			log.Fatal(err)
		}
		ef, err := out.EnvyFreeness(setup.Players)
		if err != nil {
			log.Fatal(err)
		}
		status := "ok"
		if ef < minEF {
			status = "VIOLATED"
		}
		fmt.Printf("%-14.2f %10.3f %8.3f %8.3f %10.3f  %s\n",
			minEF, out.Efficiency(), ef, out.MBR, out.EFBound(), status)
	}
	// Output:
	// knob 1: step aggressiveness (initial budget cut)
	// mechanism         speedup       EF      MBR   EF bound
	// EqualBudget         6.138    1.000    1.000      0.828
	// ReBudget-5          6.148    0.994    0.962      0.801
	// ReBudget-10         6.149    0.993    0.959      0.800
	// ReBudget-20         6.199    0.933    0.700      0.608
	// ReBudget-40         6.207    0.906    0.600      0.530
	// ReBudget-60         6.185    0.846    0.441      0.401
	//
	// knob 2: administrator's fairness floor (Theorem 2 → MBR floor)
	// min EF            speedup       EF      MBR   EF bound
	// 0.80                6.146    0.995    0.970      0.807  ok
	// 0.60                6.170    0.944    0.778      0.667  ok
	// 0.40                6.185    0.960    0.805      0.687  ok
	// 0.20                6.206    0.907    0.605      0.534  ok
}

// The market framework is defined for M resources (§2) even though the
// paper's evaluation allocates two. Add memory bandwidth as a third resource
// and the market routes each resource to the class that values it: cache to
// C apps, power to P apps, bandwidth to the N-class streamers that neither
// cache nor frequency can help.
func ExampleNewSetupWithBandwidth() {
	var bundle rebudget.Bundle
	bundle.Category = "custom"
	for _, name := range []string{"mcf", "art", "sixtrack", "hmmer", "swim", "equake", "lucas", "wupwise"} {
		spec, err := rebudget.LookupApp(name)
		if err != nil {
			log.Fatal(err)
		}
		bundle.Apps = append(bundle.Apps, spec)
	}
	setup, err := rebudget.NewSetupWithBandwidth(bundle)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("three-resource market: %.0f regions, %.1f W, %.1f GB/s\n\n",
		setup.Capacity[0], setup.Capacity[1], setup.Capacity[2])

	for _, mech := range []rebudget.Allocator{
		rebudget.EqualBudget{},
		rebudget.ReBudget{Step: 20},
	} {
		out, err := mech.Allocate(setup.Capacity, setup.Players)
		if err != nil {
			log.Fatal(err)
		}
		ef, err := out.EnvyFreeness(setup.Players)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: welfare %.3f, envy-freeness %.3f\n", out.Mechanism, out.Efficiency(), ef)
		fmt.Printf("  %-14s %6s %10s %9s %10s %9s\n", "app", "class", "Δregions", "Δwatts", "ΔGB/s", "utility")
		for i, a := range bundle.Apps {
			fmt.Printf("  %-12s#%d %6s %10.2f %9.2f %10.2f %9.3f\n",
				a.Name, i, a.Class, out.Allocations[i][0], out.Allocations[i][1],
				out.Allocations[i][2], out.Utilities[i])
		}
		fmt.Println()
	}
	// Output:
	// three-resource market: 24 regions, 68.7 W, 23.6 GB/s
	//
	// EqualBudget: welfare 6.159, envy-freeness 1.000
	//   app             class   Δregions    Δwatts      ΔGB/s   utility
	//   mcf         #0      C       5.93      3.08       2.37     0.301
	//   art         #1      C       5.93      3.29       2.24     0.532
	//   sixtrack    #2      P       2.73     12.95       0.53     0.889
	//   hmmer       #3      P       2.73     12.95       0.53     0.908
	//   swim        #4      B       1.51     12.95       2.24     0.957
	//   equake      #5      B       4.99      5.96       1.85     0.694
	//   lucas       #6      N       0.09      8.64       6.99     0.939
	//   wupwise     #7      N       0.09      8.84       6.86     0.939
	//
	// ReBudget-20: welfare 6.476, envy-freeness 0.791
	//   app             class   Δregions    Δwatts      ΔGB/s   utility
	//   mcf         #0      C       5.18      2.44       2.62     0.274
	//   art         #1      C       6.98      8.58       1.23     0.925
	//   sixtrack    #2      P       2.73     12.57       0.63     0.878
	//   hmmer       #3      P       2.73     12.57       0.63     0.897
	//   swim        #4      B       1.23     11.00       2.49     0.932
	//   equake      #5      B       4.98      5.98       2.05     0.698
	//   lucas       #6      N       0.08      7.68       7.04     0.936
	//   wupwise     #7      N       0.08      7.85       6.90     0.936
}

// §5 notes that resources can be allocated at application granularity: all
// threads of a parallel application share one market player's budget and
// split its allocation. A mix of wide and narrow applications shows why
// equal per-application budgets over-fund narrow apps, and how ReBudget
// reclaims the surplus.
func ExampleNewSetupThreaded() {
	mk := func(name string, threads int) rebudget.ThreadedApp {
		spec, err := rebudget.LookupApp(name)
		if err != nil {
			log.Fatal(err)
		}
		return rebudget.ThreadedApp{Spec: spec, Threads: threads}
	}
	// 16 cores: one 8-thread solver, one 4-thread cache-hungry app, and
	// four single-thread jobs.
	tb := rebudget.ThreadedBundle{Apps: []rebudget.ThreadedApp{
		mk("swim", 8),
		mk("mcf", 4),
		mk("sixtrack", 1),
		mk("hmmer", 1),
		mk("gzip", 1),
		mk("lucas", 1),
	}}
	setup, err := rebudget.NewSetupThreaded(tb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d applications on %d cores; market capacity %.0f regions, %.1f W\n\n",
		len(tb.Apps), tb.Cores(), setup.Capacity[0], setup.Capacity[1])

	for _, mech := range []rebudget.Allocator{
		rebudget.EqualBudget{},
		rebudget.ReBudget{Step: 40},
	} {
		out, err := mech.Allocate(setup.Capacity, setup.Players)
		if err != nil {
			log.Fatal(err)
		}
		per, err := rebudget.PerThreadUtilities(tb, out.Utilities)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: per-core weighted speedup %.3f (max %d)\n", out.Mechanism, out.Efficiency(), tb.Cores())
		fmt.Printf("  %-14s %8s %10s %10s %10s\n", "application", "budget", "Δregions", "Δwatts", "perf/thread")
		for i, p := range setup.Players {
			fmt.Printf("  %-14s %8.1f %10.2f %10.2f %10.3f\n",
				p.Name, out.Budgets[i], out.Allocations[i][0], out.Allocations[i][1], per[i])
		}
		fmt.Println()
	}
	// Output:
	// 6 applications on 16 cores; market capacity 48 regions, 137.6 W
	//
	// EqualBudget: per-core weighted speedup 13.557 (max 16)
	//   application      budget   Δregions     Δwatts perf/thread
	//   swim×8            800.0      13.19      79.45      0.937
	//   mcf×4             400.0      30.78      15.89      0.652
	//   sixtrack×1        100.0       0.92      10.65      0.802
	//   hmmer×1           100.0       0.92      10.65      0.818
	//   gzip×1            100.0       2.02       9.57      0.838
	//   lucas×1           100.0       0.18      11.38      0.996
	//
	// ReBudget-40: per-core weighted speedup 13.578 (max 16)
	//   application      budget   Δregions     Δwatts perf/thread
	//   swim×8            260.0       7.90      72.63      0.910
	//   mcf×4             115.0      28.66      12.52      0.599
	//   sixtrack×1         66.2       3.62      17.25      1.000
	//   hmmer×1            66.2       4.43      16.62      1.000
	//   gzip×1             48.8       3.26      12.23      0.929
	//   lucas×1            21.2       0.13       6.34      0.976
}

// service models a datacenter tenant's diminishing-returns utility over
// [cpuCores, gbps]: u = weighted log-saturation per resource.
type service struct {
	name      string
	cpuWeight float64 // relative value of CPU
	netWeight float64 // relative value of bandwidth
	cpuDemand float64 // cores at which CPU utility saturates
	netDemand float64 // Gbps at which bandwidth utility saturates
}

func (s service) utility(alloc []float64) float64 {
	// log1p-shaped: concave, non-decreasing, ≈1 at the demand point.
	sat := func(x, demand float64) float64 {
		return math.Log1p(x / demand * (math.E - 1))
	}
	u := s.cpuWeight*math.Min(1, sat(alloc[0], s.cpuDemand)) +
		s.netWeight*math.Min(1, sat(alloc[1], s.netDemand))
	return u / (s.cpuWeight + s.netWeight)
}

// The market framework is not CMP-specific: any set of players with concave
// utilities over divisible resources works — the proportional-share setting
// of Feldman et al. Divide CPU cores and network bandwidth among datacenter
// tenants with hand-written utility functions, then let ReBudget favour the
// tenants that benefit most while keeping a provable fairness floor.
func ExampleUtilityFunc() {
	// 128 cores and 100 Gbps to divide among four tenants.
	capacity := []float64{128, 100}
	services := []service{
		{name: "web-frontend", cpuWeight: 3, netWeight: 2, cpuDemand: 48, netDemand: 40},
		{name: "batch-ml", cpuWeight: 5, netWeight: 0.5, cpuDemand: 96, netDemand: 10},
		{name: "video-cdn", cpuWeight: 0.5, netWeight: 5, cpuDemand: 12, netDemand: 80},
		{name: "cron-jobs", cpuWeight: 1, netWeight: 1, cpuDemand: 8, netDemand: 5},
	}

	var players []rebudget.PlayerSpec
	for _, s := range services {
		players = append(players, rebudget.PlayerSpec{
			Name:    s.name,
			Utility: rebudget.UtilityFunc(s.utility),
			// Balanced uses these to size budgets by potential.
			MaxAlloc: []float64{s.cpuDemand, s.netDemand},
			MinAlloc: []float64{0, 0},
		})
	}

	for _, mech := range []rebudget.Allocator{
		rebudget.EqualBudget{},
		rebudget.ReBudget{MinEnvyFreeness: 0.5},
		rebudget.MaxEfficiency{},
	} {
		out, err := mech.Allocate(capacity, players)
		if err != nil {
			log.Fatal(err)
		}
		ef, err := out.EnvyFreeness(players)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: welfare %.3f, envy-freeness %.3f\n", out.Mechanism, out.Efficiency(), ef)
		for i, s := range services {
			budget := "-"
			if out.Budgets != nil {
				budget = fmt.Sprintf("%.0f", out.Budgets[i])
			}
			fmt.Printf("  %-14s budget %4s → %6.1f cores, %6.1f Gbps (u=%.3f)\n",
				s.name, budget, out.Allocations[i][0], out.Allocations[i][1], out.Utilities[i])
		}
		fmt.Println()
	}
	// Output:
	// EqualBudget: welfare 3.118, envy-freeness 1.000
	//   web-frontend   budget  100 →   37.4 cores,   20.2 Gbps (u=0.759)
	//   batch-ml       budget  100 →   50.5 cores,    8.4 Gbps (u=0.666)
	//   video-cdn      budget  100 →   10.3 cores,   44.5 Gbps (u=0.692)
	//   cron-jobs      budget  100 →   29.9 cores,   26.9 Gbps (u=1.000)
	//
	// ReBudget: welfare 3.287, envy-freeness 1.000
	//   web-frontend   budget  100 →   41.8 cores,   22.5 Gbps (u=0.820)
	//   batch-ml       budget  100 →   55.4 cores,   10.3 Gbps (u=0.717)
	//   video-cdn      budget  100 →   11.5 cores,   49.8 Gbps (u=0.750)
	//   cron-jobs      budget   58 →   19.3 cores,   17.3 Gbps (u=1.000)
	//
	// MaxEfficiency: welfare 3.508, envy-freeness 1.000
	//   web-frontend   budget    - →   48.0 cores,   25.4 Gbps (u=0.895)
	//   batch-ml       budget    - →   66.8 cores,    5.3 Gbps (u=0.773)
	//   video-cdn      budget    - →    5.2 cores,   64.3 Gbps (u=0.839)
	//   cron-jobs      budget    - →    8.0 cores,    5.1 Gbps (u=1.000)
}

// Compare every allocation mechanism on a custom 8-core mix over the
// profiled, convexified utilities. The execution-driven counterpart is
// ExampleNewChip for one chip and rebudget-bench -exp fig5 for the sweep.
func ExampleAllocator() {
	// Hand-pick a mix: two cache-hungry apps, two compute-bound apps,
	// two that want both, and two that want neither.
	var bundle rebudget.Bundle
	bundle.Category = "custom"
	for _, name := range []string{"mcf", "art", "sixtrack", "hmmer", "swim", "equake", "lucas", "gap"} {
		spec, err := rebudget.LookupApp(name)
		if err != nil {
			log.Fatal(err)
		}
		bundle.Apps = append(bundle.Apps, spec)
	}
	setup, err := rebudget.NewSetup(bundle)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("analytic market (profiled utilities):")
	fmt.Printf("%-14s %10s %8s %8s %8s\n", "mechanism", "speedup", "EF", "MUR", "MBR")
	for _, m := range []rebudget.Allocator{
		rebudget.EqualShare{},
		rebudget.EqualBudget{},
		rebudget.Balanced{},
		rebudget.ReBudget{Step: 20},
		rebudget.ReBudget{Step: 40},
		rebudget.MaxEfficiency{},
	} {
		out, err := m.Allocate(setup.Capacity, setup.Players)
		if err != nil {
			log.Fatal(err)
		}
		ef, err := out.EnvyFreeness(setup.Players)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %10.3f %8.3f %8.3f %8.3f\n",
			out.Mechanism, out.Efficiency(), ef, out.MUR, out.MBR)
	}
	// Output:
	// analytic market (profiled utilities):
	// mechanism         speedup       EF      MUR      MBR
	// EqualShare          6.006    1.000      NaN      NaN
	// EqualBudget         6.815    1.000    0.035    1.000
	// Balanced            7.107    0.928    0.241    0.218
	// ReBudget-20         6.901    0.857    0.038    0.671
	// ReBudget-40         7.048    0.636    0.108    0.262
	// MaxEfficiency       7.247    0.724      NaN      NaN
}
