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
	"strings"

	"rebudget/internal/cmpsim"
	"rebudget/internal/core"
	"rebudget/internal/experiments"
	"rebudget/internal/market"
	"rebudget/internal/metrics"
	"rebudget/internal/profiling"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: "+experimentNames())
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

	stopProf, err := profiling.Start("rebudget-bench", *cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rebudget-bench:", err)
		os.Exit(1)
	}
	err = run(*exp, runner{
		w: os.Stdout, cores: *cores, bundles: *bundles, seed: *seed,
		epochs: *epochs, samples: *samples, csvDir: *csvDir,
		// The experiment engine fans independent cells (chips, bundles,
		// fault-rate points) across sweep workers; results are
		// bit-identical at any worker count, so the knob only trades
		// wall time against CPU.
		eng: experiments.Engine{Workers: *sweepW},
	}, *eqstats)
	stopProf()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rebudget-bench:", err)
		os.Exit(1)
	}
}

// experiment is one -exp name. Two more names select groups: "all" runs
// every experiment marked inAll, "ablations" every "ablation-" experiment,
// both in table order.
type experiment struct {
	name  string
	inAll bool
	run   func(*runner) error
}

// experimentTable is the one list of -exp names: the dispatcher and the
// flag's help string both read it.
var experimentTable = []experiment{
	{"table1", true, (*runner).table1},
	{"fig1", true, (*runner).fig1},
	{"fig2", true, (*runner).fig2},
	{"fig3", true, (*runner).fig3},
	{"fig4", true, (*runner).fig4},
	{"convergence", false, (*runner).convergence},
	{"fig5", true, (*runner).fig5},
	{"tenant", true, (*runner).tenant},
	// Not part of "all": the sweep injects faults, so it is a diagnostic
	// rather than a paper figure and "all" output stays stable.
	{"resilience", false, (*runner).resilience},
	{"validate", true, (*runner).validate},
	{"ablation-talus", true, ablation("Talus convexification on/off", experiments.AblationTalus)},
	{"ablation-lambda", true, ablation("ReBudget low-λ threshold", experiments.AblationLambdaThreshold)},
	{"ablation-backoff", true, ablation("exponential back-off vs fixed step", experiments.AblationBackoff)},
	{"ablation-bids", true, ablation("bid hill-climb granularity", experiments.AblationBidOptimizer)},
}

// experimentNames lists every accepted -exp value.
func experimentNames() string {
	names := make([]string, 0, len(experimentTable)+2)
	for _, e := range experimentTable {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "ablations", "all"), "|")
}

// selectExperiments resolves an -exp value to the experiments it runs.
func selectExperiments(exp string) ([]experiment, error) {
	var out []experiment
	for _, e := range experimentTable {
		if exp == e.name || exp == "all" && e.inAll ||
			exp == "ablations" && strings.HasPrefix(e.name, "ablation-") {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (want %s)", exp, experimentNames())
	}
	return out, nil
}

func run(exp string, r runner, eqstats bool) error {
	selected, err := selectExperiments(exp)
	if err != nil {
		return err
	}
	// Equilibrium profiling threads through every analytic-market
	// experiment; detailed simulations carry their own per-chip profile
	// (Result.Equilibrium).
	var prof metrics.EquilibriumProfile
	r.mechs = experiments.InstrumentedMechanisms(func(mc market.Config) market.Config {
		mc.Observer = prof.Observe
		return mc
	})
	defer func() {
		if eqstats {
			fmt.Fprintln(os.Stderr, "rebudget-bench:", prof.Snapshot())
		}
	}()
	for _, e := range selected {
		if err := e.run(&r); err != nil {
			return err
		}
		fmt.Fprintln(r.w)
	}
	return nil
}

// runner carries the command line into each experiment.
type runner struct {
	w                               io.Writer
	eng                             experiments.Engine
	mechs                           []core.Allocator
	cores, bundles, epochs, samples int
	seed                            uint64
	csvDir                          string
}

// writeCSV also writes a dataset into -csv's directory when one is given.
func (r *runner) writeCSV(name string, emit func(io.Writer) error) error {
	if r.csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(r.csvDir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return emit(f)
}

// simConfig is the detailed-simulation configuration the flags describe.
func (r *runner) simConfig() cmpsim.Config {
	cfg := cmpsim.DefaultConfig(r.cores)
	cfg.Epochs = r.epochs
	cfg.MaxAccessesPerCoreEpoch = r.samples
	return cfg
}

func (r *runner) table1() error {
	experiments.RenderTable1(r.w)
	return nil
}

func (r *runner) fig1() error {
	experiments.RenderFig1(r.w, experiments.Fig1(21))
	return nil
}

func (r *runner) fig2() error {
	curves, err := experiments.Fig2()
	if err != nil {
		return err
	}
	experiments.RenderFig2(r.w, curves)
	return r.writeCSV("fig2.csv", func(f io.Writer) error {
		return experiments.WriteFig2CSV(f, curves)
	})
}

func (r *runner) fig3() error {
	res, err := experiments.Fig3()
	if err != nil {
		return err
	}
	experiments.RenderFig3(r.w, res)
	return nil
}

// sweep runs the phase-1 sweep behind fig4 and convergence.
func (r *runner) sweep(render func(*experiments.SweepResult)) error {
	fmt.Fprintf(r.w, "# running phase-1 sweep: %d cores × %d bundles/category …\n", r.cores, r.bundles)
	s, err := r.eng.RunSweep(r.cores, r.bundles, r.seed, r.mechs)
	if err != nil {
		return err
	}
	render(s)
	return r.writeCSV("fig4.csv", func(f io.Writer) error {
		return experiments.WriteSweepCSV(f, s)
	})
}

func (r *runner) fig4() error {
	return r.sweep(func(s *experiments.SweepResult) {
		experiments.RenderFig4(r.w, s)
		fmt.Fprintln(r.w)
		experiments.RenderCategorySummary(r.w, s)
		fmt.Fprintln(r.w)
		experiments.RenderConvergence(r.w, s)
	})
}

func (r *runner) convergence() error {
	return r.sweep(func(s *experiments.SweepResult) { experiments.RenderConvergence(r.w, s) })
}

func (r *runner) fig5() error {
	cfg := r.simConfig()
	cfg.Seed = r.seed
	fmt.Fprintf(r.w, "# running detailed simulation: %d cores, %d epochs, one bundle/category …\n",
		r.cores, r.epochs)
	res, err := r.eng.RunFig5(cfg, r.seed, nil)
	if err != nil {
		return err
	}
	experiments.RenderFig5(r.w, res)
	return r.writeCSV("fig5.csv", func(f io.Writer) error {
		return experiments.WriteFig5CSV(f, res)
	})
}

func (r *runner) tenant() error {
	fmt.Fprintf(r.w, "# running tenant economy frontier: 9 tenants × 240 epochs …\n")
	res, err := experiments.RunTenantFrontier(9, 240, r.seed, nil)
	if err != nil {
		return err
	}
	experiments.RenderTenantFrontier(r.w, res)
	return r.writeCSV("tenant_frontier.csv", func(f io.Writer) error {
		return experiments.WriteTenantFrontierCSV(f, res)
	})
}

func (r *runner) resilience() error {
	cfg := r.simConfig()
	cfg.Seed = r.seed
	fmt.Fprintf(r.w, "# running resilience sweep: %d cores, %d epochs …\n", r.cores, r.epochs)
	res, err := r.eng.RunResilience(cfg, r.seed, nil)
	if err != nil {
		return err
	}
	experiments.RenderResilience(r.w, res)
	return nil
}

func (r *runner) validate() error {
	rows, mae, err := experiments.PhaseValidation(r.simConfig(), r.seed)
	if err != nil {
		return err
	}
	experiments.RenderValidation(r.w, rows, mae)
	return nil
}

// ablation adapts one design-choice study to the table.
func ablation(name string, study func() ([]experiments.AblationRow, error)) func(*runner) error {
	return func(r *runner) error {
		rows, err := study()
		if err != nil {
			return err
		}
		experiments.RenderAblation(r.w, name, rows)
		return nil
	}
}
