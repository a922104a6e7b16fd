// Command rebudget-bench regenerates the tables and figures of the paper's
// evaluation (§6). Each experiment prints the same rows/series the paper
// reports; see EXPERIMENTS.md for the paper-vs-measured comparison.
//
// Usage:
//
//	rebudget-bench -exp fig4 -cores 64 -bundles 40
//	rebudget-bench -exp all -cores 8 -bundles 5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"rebudget/internal/cmpsim"
	"rebudget/internal/experiments"
	"rebudget/internal/market"
	"rebudget/internal/metrics"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: fig1|fig2|fig3|fig4|fig5|table1|convergence|tenant|resilience|ablations|all")
		cores   = flag.Int("cores", 64, "CMP size for fig4/fig5/convergence (multiple of 4)")
		bundles = flag.Int("bundles", 40, "random bundles per category for fig4/convergence")
		seed    = flag.Uint64("seed", 1, "workload generation seed")
		epochs  = flag.Int("epochs", 12, "measured epochs per fig5 simulation")
		samples = flag.Int("samples", 6000, "max simulated L2 accesses per core per epoch (fig5)")
		csvDir  = flag.String("csv", "", "directory to also write tidy CSV datasets into (fig2/fig4/fig5)")
		sweepW  = flag.Int("sweep-workers", 0, "experiment cells run concurrently (0 = GOMAXPROCS, 1 = serial)")
		eqstats = flag.Bool("eqstats", false, "print equilibrium convergence-cost counters to stderr")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rebudget-bench:", err)
		os.Exit(1)
	}
	err = run(*exp, *cores, *bundles, *seed, *epochs, *samples, *csvDir, *sweepW, *eqstats)
	stopProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rebudget-bench:", err)
		os.Exit(1)
	}
}

// startProfiles starts the optional pprof captures; the returned function
// finalises them (stops the CPU profile, writes the heap profile).
func startProfiles(cpuPath, memPath string) (func(), error) {
	stop := func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if memPath == "" {
		return stop, nil
	}
	cpuStop := stop
	return func() {
		cpuStop()
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rebudget-bench: memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rebudget-bench: memprofile:", err)
		}
	}, nil
}

func run(exp string, cores, bundles int, seed uint64, epochs, samples int, csvDir string, sweepWorkers int, eqstats bool) error {
	w := os.Stdout
	// The experiment engine fans independent cells (chips, bundles,
	// fault-rate points) across sweepWorkers goroutines; results are
	// bit-identical at any worker count, so the knob only trades wall time
	// against CPU.
	eng := experiments.Engine{Workers: sweepWorkers}
	// Equilibrium profiling threads through every analytic-market
	// experiment; detailed simulations carry their own per-chip profile
	// (Result.Equilibrium).
	var prof metrics.EquilibriumProfile
	mechs := experiments.InstrumentedMechanisms(func(mc market.Config) market.Config {
		mc.Observer = prof.Observe
		return mc
	})
	defer func() {
		if eqstats {
			fmt.Fprintln(os.Stderr, "rebudget-bench:", prof.Snapshot())
		}
	}()
	want := func(name string) bool { return exp == "all" || exp == name || strings.HasPrefix(name, exp) }
	ran := false
	writeCSV := func(name string, emit func(io.Writer) error) error {
		if csvDir == "" {
			return nil
		}
		f, err := os.Create(filepath.Join(csvDir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		return emit(f)
	}

	if want("table1") {
		ran = true
		experiments.RenderTable1(w)
		fmt.Fprintln(w)
	}
	if want("fig1") {
		ran = true
		experiments.RenderFig1(w, experiments.Fig1(21))
		fmt.Fprintln(w)
	}
	if want("fig2") {
		ran = true
		curves, err := experiments.Fig2()
		if err != nil {
			return err
		}
		experiments.RenderFig2(w, curves)
		if err := writeCSV("fig2.csv", func(f io.Writer) error {
			return experiments.WriteFig2CSV(f, curves)
		}); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if want("fig3") {
		ran = true
		r, err := experiments.Fig3()
		if err != nil {
			return err
		}
		experiments.RenderFig3(w, r)
		fmt.Fprintln(w)
	}
	if want("fig4") || exp == "convergence" {
		ran = true
		fmt.Fprintf(w, "# running phase-1 sweep: %d cores × %d bundles/category …\n", cores, bundles)
		s, err := eng.RunSweep(cores, bundles, seed, mechs)
		if err != nil {
			return err
		}
		switch exp {
		case "fig4a":
			experiments.RenderFig4(w, s)
		case "fig4b":
			experiments.RenderFig4(w, s)
		case "convergence":
			experiments.RenderConvergence(w, s)
		default:
			experiments.RenderFig4(w, s)
			fmt.Fprintln(w)
			experiments.RenderCategorySummary(w, s)
			fmt.Fprintln(w)
			experiments.RenderConvergence(w, s)
		}
		if err := writeCSV("fig4.csv", func(f io.Writer) error {
			return experiments.WriteSweepCSV(f, s)
		}); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if want("fig5") {
		ran = true
		cfg := cmpsim.DefaultConfig(cores)
		cfg.Epochs = epochs
		cfg.MaxAccessesPerCoreEpoch = samples
		cfg.Seed = seed
		fmt.Fprintf(w, "# running detailed simulation: %d cores, %d epochs, one bundle/category …\n",
			cores, epochs)
		r, err := eng.RunFig5(cfg, seed, nil)
		if err != nil {
			return err
		}
		experiments.RenderFig5(w, r)
		if err := writeCSV("fig5.csv", func(f io.Writer) error {
			return experiments.WriteFig5CSV(f, r)
		}); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if want("tenant") {
		ran = true
		fmt.Fprintf(w, "# running tenant economy frontier: 9 tenants × 240 epochs …\n")
		r, err := experiments.RunTenantFrontier(9, 240, seed, nil)
		if err != nil {
			return err
		}
		experiments.RenderTenantFrontier(w, r)
		if err := writeCSV("tenant_frontier.csv", func(f io.Writer) error {
			return experiments.WriteTenantFrontierCSV(f, r)
		}); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if exp == "resilience" {
		// Explicit-only (not part of "all"): the sweep injects faults, so
		// it is a diagnostic rather than a paper figure.
		ran = true
		cfg := cmpsim.DefaultConfig(cores)
		cfg.Epochs = epochs
		cfg.MaxAccessesPerCoreEpoch = samples
		cfg.Seed = seed
		fmt.Fprintf(w, "# running resilience sweep: %d cores, %d epochs …\n", cores, epochs)
		r, err := eng.RunResilience(cfg, seed, nil)
		if err != nil {
			return err
		}
		experiments.RenderResilience(w, r)
		fmt.Fprintln(w)
	}
	if want("validate") {
		ran = true
		cfg := cmpsim.DefaultConfig(cores)
		cfg.Epochs = epochs
		cfg.MaxAccessesPerCoreEpoch = samples
		rows, mae, err := experiments.PhaseValidation(cfg, seed)
		if err != nil {
			return err
		}
		experiments.RenderValidation(w, rows, mae)
		fmt.Fprintln(w)
	}
	if exp == "all" || exp == "ablations" || exp == "ablation-granularity" {
		ran = true
		cfg := cmpsim.DefaultConfig(8)
		cfg.Epochs = epochs
		cfg.MaxAccessesPerCoreEpoch = samples
		rows, err := eng.AblationGranularity(cfg)
		if err != nil {
			return err
		}
		experiments.RenderGranularity(w, rows)
		fmt.Fprintln(w)
	}
	if want("ablations") || strings.HasPrefix(exp, "ablation-") {
		type ab struct {
			key  string
			name string
			run  func() ([]experiments.AblationRow, error)
		}
		for _, a := range []ab{
			{"ablation-talus", "Talus convexification on/off", experiments.AblationTalus},
			{"ablation-lambda", "ReBudget low-λ threshold", experiments.AblationLambdaThreshold},
			{"ablation-backoff", "exponential back-off vs fixed step", experiments.AblationBackoff},
			{"ablation-bids", "bid hill-climb granularity", experiments.AblationBidOptimizer},
		} {
			if exp != "all" && exp != "ablations" && exp != a.key {
				continue
			}
			ran = true
			rows, err := a.run()
			if err != nil {
				return err
			}
			experiments.RenderAblation(w, a.name, rows)
			fmt.Fprintln(w)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
