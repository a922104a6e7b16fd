// Command marketsim runs a single workload bundle through one allocation
// mechanism and prints the full market state: budgets, bids, allocations,
// per-player utilities and marginal utilities, MUR/MBR and the theoretical
// bounds they imply.
//
// Usage:
//
//	marketsim -category CPBB -cores 8 -mech rebudget-20
//	marketsim -fig3 -mech equalbudget
//	marketsim -category BBPN -cores 64 -mech rebudget -min-ef 0.5 -sim
//	marketsim -category CPBN -cores 8 -mech rebudget-20 -sim -faults 0.1 -fault-seed 7
package main

import (
	"flag"
	"fmt"
	"os"

	"rebudget/internal/cmpsim"
	"rebudget/internal/core"
	"rebudget/internal/fault"
	"rebudget/internal/market"
	"rebudget/internal/metrics"
	"rebudget/internal/numeric"
	"rebudget/internal/profiling"
	"rebudget/internal/workload"
)

func main() {
	var (
		category = flag.String("category", "CPBN", "bundle category (CPBN|CCPP|CPBB|BBNN|BBPN|BBCN)")
		cores    = flag.Int("cores", 8, "number of cores (multiple of 4)")
		seed     = flag.Uint64("seed", 1, "bundle selection seed")
		fig3     = flag.Bool("fig3", false, "use the paper's Figure 3 BBPC bundle (8 cores)")
		mechName = flag.String("mech", "equalbudget", "mechanism: equalshare|equalbudget|balanced|maxefficiency|rebudget-<step>|rebudget")
		minEF    = flag.Float64("min-ef", 0, "fairness floor for -mech rebudget (Theorem 2 knob)")
		sim      = flag.Bool("sim", false, "run the detailed execution-driven simulation instead of the analytic market")
		bw       = flag.Bool("bw", false, "allocate memory bandwidth as a third resource")
		faults   = flag.Float64("faults", 0, "fault-injection rate in [0,1): monitor corruption + solver stalls at this rate, utility faults at a tenth of it (requires -sim)")
		faultSee = flag.Uint64("fault-seed", 1, "fault-injection random stream seed")
		eqstats  = flag.Bool("eqstats", false, "print equilibrium convergence-cost counters to stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start("marketsim", *cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marketsim:", err)
		os.Exit(1)
	}
	err = run(*category, *cores, *seed, *fig3, *mechName, *minEF, *sim, *bw, *faults, *faultSee, *eqstats)
	stopProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, "marketsim:", err)
		os.Exit(1)
	}
}

func run(category string, cores int, seed uint64, fig3 bool, mechName string, minEF float64, sim, bw bool, faults float64, faultSeed uint64, eqstats bool) error {
	mech, err := core.ParseMechanism(mechName, minEF)
	if err != nil {
		return err
	}
	var prof metrics.EquilibriumProfile
	defer func() {
		if eqstats {
			fmt.Fprintln(os.Stderr, "marketsim:", prof.Snapshot())
		}
	}()
	mech = core.WithMarketConfig(mech, func(mc market.Config) market.Config {
		mc.Observer = prof.Observe
		return mc
	})
	if faults < 0 || faults >= 1 {
		return fmt.Errorf("-faults %g outside [0,1)", faults)
	}
	if faults > 0 && !sim {
		return fmt.Errorf("-faults requires -sim (injection targets the runtime monitoring pipeline)")
	}
	var bundle workload.Bundle
	if fig3 {
		bundle, err = workload.Figure3Bundle()
		cores = len(bundle.Apps)
	} else {
		bundle, err = workload.Generate(workload.Category(category), cores, numeric.NewRand(seed))
	}
	if err != nil {
		return err
	}

	fmt.Printf("bundle %s (%d cores):", bundle.Category, cores)
	for _, a := range bundle.Apps {
		fmt.Printf(" %s[%s]", a.Name, a.Class)
	}
	fmt.Println()

	if sim {
		cfg := cmpsim.DefaultConfig(cores)
		cfg.Seed = seed
		cfg.BandwidthMarket = bw
		if faults > 0 {
			cfg.Faults = fault.Config{
				MonitorRate: faults,
				SolverRate:  faults,
				UtilityRate: faults / 10,
				Seed:        faultSeed,
			}
		}
		chip, err := cmpsim.NewChip(cfg, bundle)
		if err != nil {
			return err
		}
		res, err := chip.Run(mech)
		if err != nil {
			return err
		}
		if eqstats {
			// The chip installs its own per-run profiler over the
			// command-level one; report the chip's counters.
			fmt.Fprintln(os.Stderr, "marketsim:", res.Equilibrium)
			eqstats = false
		}
		fmt.Printf("\ndetailed simulation, mechanism %s:\n", res.Mechanism)
		fmt.Printf("  weighted speedup  %8.3f\n", res.WeightedSpeedup)
		fmt.Printf("  envy-freeness     %8.3f\n", res.EnvyFreeness)
		fmt.Printf("  mean iterations   %8.1f\n", res.MeanIterations)
		fmt.Printf("  avg core power    %7.2f W\n", res.AvgPowerW)
		fmt.Printf("  max temperature   %7.1f C\n", res.MaxTempC)
		if faults > 0 {
			h := res.Health
			fmt.Printf("  pipeline health   %8s (attempts %d, failures %d, pinned %d, transitions %d)\n",
				h.State, h.AllocAttempts, h.AllocFailures, h.PinnedIntervals, h.Transitions)
			fmt.Printf("  failure causes    monitor %d, utility %d, solver %d, other %d\n",
				h.Causes[metrics.CauseMonitor], h.Causes[metrics.CauseUtility],
				h.Causes[metrics.CauseSolver], h.Causes[metrics.CauseAllocator])
			fmt.Printf("  faults fired      curves %d, utilities %d, stalls %d; repairs %d, non-converged %d\n",
				res.Faults.CurveFaults, res.Faults.UtilityFaults, res.Faults.SolverStalls,
				h.CurveRepairs, h.NonConverged)
		}
		fmt.Printf("  %-14s %10s\n", "app", "norm perf")
		for i, a := range bundle.Apps {
			fmt.Printf("  %-14s %10.3f\n", fmt.Sprintf("%s#%d", a.Name, i), res.NormPerf[i])
		}
		return nil
	}

	var setup *workload.Setup
	if bw {
		setup, err = workload.NewSetupWithBandwidth(bundle)
	} else {
		setup, err = workload.NewSetup(bundle)
	}
	if err != nil {
		return err
	}
	out, err := mech.Allocate(setup.Capacity, setup.Players)
	if err != nil {
		return err
	}
	ef, err := out.EnvyFreeness(setup.Players)
	if err != nil {
		return err
	}
	if bw {
		fmt.Printf("\nmechanism %s (capacity: %.0f regions, %.1f W, %.1f GB/s beyond floors):\n",
			out.Mechanism, setup.Capacity[0], setup.Capacity[1], setup.Capacity[2])
	} else {
		fmt.Printf("\nmechanism %s (capacity: %.0f regions, %.1f W beyond floors):\n",
			out.Mechanism, setup.Capacity[0], setup.Capacity[1])
	}
	fmt.Printf("  efficiency (weighted speedup) %8.3f\n", out.Efficiency())
	fmt.Printf("  envy-freeness                 %8.3f\n", ef)
	fmt.Printf("  MUR %6.3f  → PoA bound %6.3f\n", out.MUR, out.PoABound())
	fmt.Printf("  MBR %6.3f  → EF  bound %6.3f\n", out.MBR, out.EFBound())
	fmt.Printf("  equilibrium runs %d, total iterations %d, converged %v\n",
		out.EquilibriumRuns, out.Iterations, out.Converged)
	header := "  %-14s %8s %10s %10s"
	cols := []interface{}{"app", "budget", "Δregions", "Δwatts"}
	if bw {
		header += " %10s"
		cols = append(cols, "ΔGB/s")
	}
	fmt.Printf(header+" %12s %10s\n", append(cols, "utility", "lambda")...)
	for i, p := range setup.Players {
		budget := "-"
		lambda := "-"
		if out.Budgets != nil {
			budget = fmt.Sprintf("%.2f", out.Budgets[i])
		}
		if out.Lambdas != nil {
			lambda = fmt.Sprintf("%.5f", out.Lambdas[i])
		}
		fmt.Printf("  %-14s %8s", p.Name, budget)
		for _, a := range out.Allocations[i] {
			fmt.Printf(" %10.2f", a)
		}
		fmt.Printf(" %12.3f %10s\n", out.Utilities[i], lambda)
	}
	return nil
}
