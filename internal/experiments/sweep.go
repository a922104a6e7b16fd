package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"rebudget/internal/core"
	"rebudget/internal/market"
	"rebudget/internal/numeric"
	"rebudget/internal/workload"
)

// DefaultMechanisms returns the §6 line-up, excluding the MaxEfficiency
// reference (which the sweep always runs to normalise against).
func DefaultMechanisms() []core.Allocator {
	return []core.Allocator{
		core.EqualShare{},
		core.EqualBudget{},
		core.Balanced{},
		core.ReBudget{Step: 20},
		core.ReBudget{Step: 40},
	}
}

// InstrumentedMechanisms is DefaultMechanisms with a market-config
// transform threaded through every market-running mechanism — how callers
// set the equilibrium worker count or install a profiling observer on the
// standard line-up without rebuilding it by hand.
func InstrumentedMechanisms(apply func(market.Config) market.Config) []core.Allocator {
	mechs := DefaultMechanisms()
	for i, m := range mechs {
		mechs[i] = core.WithMarketConfig(m, apply)
	}
	return mechs
}

// BundleResult is one bundle's outcome across mechanisms.
type BundleResult struct {
	Bundle workload.Bundle
	// Per mechanism, aligned with SweepResult.Mechanisms.
	Efficiency   []float64 // normalised to MaxEfficiency
	EnvyFreeness []float64
	MUR          []float64 // NaN for non-market mechanisms
	MBR          []float64
	EFBound      []float64
	Iterations   []int // equilibrium bidding–pricing rounds (0 = non-market)
	Runs         []int // equilibrium runs (ReBudget re-converges)
	Converged    []bool
	MaxEffEF     float64 // envy-freeness of the MaxEfficiency allocation
}

// SweepResult is the Figure 4 dataset: every bundle × mechanism, analytical
// phase (perfectly modelled convexified utilities).
type SweepResult struct {
	Cores      int
	Mechanisms []string
	Bundles    []BundleResult
}

// RunSweep reproduces the §6 phase-1 sweep: perCategory bundles per
// category at the given core count, each allocated by every mechanism and
// normalised to MaxEfficiency. Work is spread across CPUs; results are
// deterministic for a fixed seed and independent of the worker count.
func RunSweep(cores, perCategory int, seed uint64, mechs []core.Allocator) (*SweepResult, error) {
	return Engine{}.RunSweep(cores, perCategory, seed, mechs)
}

// RunSweep is the engine-scheduled sweep: one cell per bundle, each writing
// only its own result slot.
func (e Engine) RunSweep(cores, perCategory int, seed uint64, mechs []core.Allocator) (*SweepResult, error) {
	if mechs == nil {
		mechs = DefaultMechanisms()
	}
	bundles, err := workload.GenerateAll(cores, perCategory, seed)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Cores: cores, Bundles: make([]BundleResult, len(bundles))}
	for _, m := range mechs {
		res.Mechanisms = append(res.Mechanisms, m.Name())
	}
	err = e.forEach(len(bundles), func(bi int) error {
		br, err := runBundle(bundles[bi], mechs)
		if err != nil {
			return fmt.Errorf("bundle %d (%s): %w", bi, bundles[bi].Category, err)
		}
		res.Bundles[bi] = *br
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func runBundle(b workload.Bundle, mechs []core.Allocator) (*BundleResult, error) {
	setup, err := workload.NewSetup(b)
	if err != nil {
		return nil, err
	}
	maxEff, err := (core.MaxEfficiency{}).Allocate(setup.Capacity, setup.Players)
	if err != nil {
		return nil, err
	}
	opt := maxEff.Efficiency()
	if opt <= 0 {
		return nil, fmt.Errorf("experiments: non-positive optimal efficiency")
	}
	br := &BundleResult{Bundle: b}
	br.MaxEffEF, err = maxEff.EnvyFreeness(setup.Players)
	if err != nil {
		return nil, err
	}
	for _, mech := range mechs {
		out, err := mech.Allocate(setup.Capacity, setup.Players)
		if err != nil {
			return nil, err
		}
		ef, err := out.EnvyFreeness(setup.Players)
		if err != nil {
			return nil, err
		}
		br.Efficiency = append(br.Efficiency, out.Efficiency()/opt)
		br.EnvyFreeness = append(br.EnvyFreeness, ef)
		br.MUR = append(br.MUR, out.MUR)
		br.MBR = append(br.MBR, out.MBR)
		br.EFBound = append(br.EFBound, out.EFBound())
		br.Iterations = append(br.Iterations, out.Iterations)
		br.Runs = append(br.Runs, out.EquilibriumRuns)
		br.Converged = append(br.Converged, out.Converged)
	}
	return br, nil
}

// mechIndex locates a mechanism column.
func (s *SweepResult) mechIndex(name string) int {
	for i, m := range s.Mechanisms {
		if m == name {
			return i
		}
	}
	return -1
}

// FractionAtLeast reports the fraction of xs at or above the threshold.
func FractionAtLeast(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x >= threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Summary holds the headline §6.1/§6.2 statistics.
type Summary struct {
	Mechanism      string
	MedianEff      float64
	MinEff         float64
	FracEff95      float64 // fraction of bundles ≥ 95% of MaxEfficiency
	FracEff90      float64
	MedianEF       float64
	WorstEF        float64
	BoundViolation int // bundles whose EF fell below the Theorem 2 bound
	P95Iterations  float64
	MeanRuns       float64
}

// Summarize computes the per-mechanism headline statistics.
func (s *SweepResult) Summarize() []Summary {
	var out []Summary
	for mi, name := range s.Mechanisms {
		var eff, efs, iters, runs []float64
		violations := 0
		for _, b := range s.Bundles {
			eff = append(eff, b.Efficiency[mi])
			efs = append(efs, b.EnvyFreeness[mi])
			iters = append(iters, float64(b.Iterations[mi]))
			runs = append(runs, float64(b.Runs[mi]))
			if !math.IsNaN(b.EFBound[mi]) && b.EnvyFreeness[mi] < b.EFBound[mi]-1e-9 {
				violations++
			}
		}
		out = append(out, Summary{
			Mechanism:      name,
			MedianEff:      numeric.Median(eff),
			MinEff:         numeric.Min(eff),
			FracEff95:      FractionAtLeast(eff, 0.95),
			FracEff90:      FractionAtLeast(eff, 0.90),
			MedianEF:       numeric.Median(efs),
			WorstEF:        numeric.Min(efs),
			BoundViolation: violations,
			P95Iterations:  numeric.Percentile(iters, 95),
			MeanRuns:       numeric.Mean(runs),
		})
	}
	return out
}

// RenderFig4 prints the Figure 4 rows (both panels), bundles ordered by
// EqualShare efficiency as in the paper, followed by the summary table.
func RenderFig4(w io.Writer, s *SweepResult) {
	order := make([]int, len(s.Bundles))
	for i := range order {
		order[i] = i
	}
	esIdx := s.mechIndex("EqualShare")
	if esIdx >= 0 {
		sort.SliceStable(order, func(a, b int) bool {
			return s.Bundles[order[a]].Efficiency[esIdx] < s.Bundles[order[b]].Efficiency[esIdx]
		})
	}
	fmt.Fprintf(w, "# Figure 4: %d-core efficiency and envy-freeness, %d bundles\n", s.Cores, len(s.Bundles))
	fmt.Fprintln(w, "# efficiency normalised to MaxEfficiency; bundles ordered by EqualShare efficiency")

	fmt.Fprintf(w, "\n## (a) efficiency\n%6s %6s", "bundle", "cat")
	for _, m := range s.Mechanisms {
		fmt.Fprintf(w, " %12s", m)
	}
	fmt.Fprintln(w)
	for rank, bi := range order {
		b := s.Bundles[bi]
		fmt.Fprintf(w, "%6d %6s", rank, b.Bundle.Category)
		for mi := range s.Mechanisms {
			fmt.Fprintf(w, " %12.3f", b.Efficiency[mi])
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "\n## (b) envy-freeness\n%6s %6s", "bundle", "cat")
	for _, m := range s.Mechanisms {
		fmt.Fprintf(w, " %12s", m)
	}
	fmt.Fprintf(w, " %12s\n", "MaxEff")
	for rank, bi := range order {
		b := s.Bundles[bi]
		fmt.Fprintf(w, "%6d %6s", rank, b.Bundle.Category)
		for mi := range s.Mechanisms {
			fmt.Fprintf(w, " %12.3f", b.EnvyFreeness[mi])
		}
		fmt.Fprintf(w, " %12.3f\n", b.MaxEffEF)
	}

	RenderSummary(w, s)
}

// RenderSummary prints the §6.1/§6.2 headline statistics.
func RenderSummary(w io.Writer, s *SweepResult) {
	fmt.Fprintf(w, "\n## summary (%d bundles)\n", len(s.Bundles))
	fmt.Fprintf(w, "%-14s %8s %8s %8s %8s %8s %8s %6s %8s %8s\n",
		"mechanism", "medEff", "minEff", "≥95%", "≥90%", "medEF", "worstEF", "viol", "p95iter", "runs")
	for _, sum := range s.Summarize() {
		fmt.Fprintf(w, "%-14s %8.3f %8.3f %7.0f%% %7.0f%% %8.3f %8.3f %6d %8.1f %8.1f\n",
			sum.Mechanism, sum.MedianEff, sum.MinEff, sum.FracEff95*100, sum.FracEff90*100,
			sum.MedianEF, sum.WorstEF, sum.BoundViolation, sum.P95Iterations, sum.MeanRuns)
	}
	// MaxEfficiency fairness reference (§6.2: "typically 0.35").
	var maxEFs []float64
	for _, b := range s.Bundles {
		maxEFs = append(maxEFs, b.MaxEffEF)
	}
	if len(maxEFs) > 0 {
		fmt.Fprintf(w, "%-14s %8s %8s %8s %8s %8.3f %8.3f\n",
			"MaxEfficiency", "1.000", "1.000", "-", "-", numeric.Median(maxEFs), numeric.Min(maxEFs))
	}
}

// RenderConvergence prints the §6.4 convergence study from sweep data.
func RenderConvergence(w io.Writer, s *SweepResult) {
	fmt.Fprintln(w, "# §6.4 convergence: bidding–pricing iterations per mechanism")
	fmt.Fprintf(w, "%-14s %8s %8s %8s %10s %10s\n",
		"mechanism", "median", "p95", "max", "conv-rate", "runs(avg)")
	for mi, name := range s.Mechanisms {
		var iters, runs []float64
		conv := 0
		for _, b := range s.Bundles {
			iters = append(iters, float64(b.Iterations[mi]))
			runs = append(runs, float64(b.Runs[mi]))
			if b.Converged[mi] {
				conv++
			}
		}
		if name == "EqualShare" {
			continue // no market
		}
		fmt.Fprintf(w, "%-14s %8.1f %8.1f %8.0f %9.0f%% %10.1f\n",
			name, numeric.Median(iters), numeric.Percentile(iters, 95), numeric.Max(iters),
			float64(conv)/float64(len(s.Bundles))*100, numeric.Mean(runs))
	}
}
