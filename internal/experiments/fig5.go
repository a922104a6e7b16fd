package experiments

import (
	"fmt"
	"io"

	"rebudget/internal/cmpsim"
	"rebudget/internal/core"
	"rebudget/internal/numeric"
	"rebudget/internal/workload"
)

// Fig5Bundle is one detailed-simulation bundle across mechanisms.
type Fig5Bundle struct {
	Category workload.Category
	// Per mechanism (aligned with Fig5Result.Mechanisms): weighted
	// speedup normalised to MaxEfficiency's simulated speedup, and
	// envy-freeness of the final allocation.
	Efficiency     []float64
	EnvyFreeness   []float64
	MeanIterations []float64
	// MaxEffEF is the envy-freeness of the MaxEfficiency reference run.
	MaxEffEF float64
}

// Fig5Result is the §6.3 dataset: one random bundle per category run in the
// detailed execution-driven simulator under every mechanism (utilities
// monitored online with UMON, Talus applied physically).
type Fig5Result struct {
	Cores      int
	Mechanisms []string
	Bundles    []Fig5Bundle
}

// RunFig5 is the engine-scheduled detailed simulation: one cell per
// (bundle, mechanism) chip plus one MaxEfficiency reference per bundle.
// Every cell writes a disjoint slot, so the fan-out needs no locking and
// the assembled result is independent of worker count and completion order.
func (e Engine) RunFig5(cfg cmpsim.Config, seed uint64, mechs []core.Allocator) (*Fig5Result, error) {
	if mechs == nil {
		mechs = DefaultMechanisms()
	}
	rng := numeric.NewRand(seed)
	res := &Fig5Result{Cores: cfg.Cores}
	for _, m := range mechs {
		res.Mechanisms = append(res.Mechanisms, m.Name())
	}

	type job struct {
		bi, mi int
		alloc  core.Allocator
		bundle workload.Bundle
	}
	var jobs []job
	res.Bundles = make([]Fig5Bundle, len(workload.Categories()))
	maxSpeedup := make([]float64, len(workload.Categories()))
	for bi, cat := range workload.Categories() {
		b, err := workload.Generate(cat, cfg.Cores, rng)
		if err != nil {
			return nil, err
		}
		res.Bundles[bi] = Fig5Bundle{
			Category:       cat,
			Efficiency:     make([]float64, len(mechs)),
			EnvyFreeness:   make([]float64, len(mechs)),
			MeanIterations: make([]float64, len(mechs)),
		}
		for mi, m := range mechs {
			jobs = append(jobs, job{bi: bi, mi: mi, alloc: m, bundle: b})
		}
		// The MaxEfficiency reference run.
		jobs = append(jobs, job{bi: bi, mi: -1, alloc: core.MaxEfficiency{}, bundle: b})
	}

	err := e.forEach(len(jobs), func(ji int) error {
		j := jobs[ji]
		chip, err := cmpsim.NewChip(cfg, j.bundle)
		if err == nil {
			var r *cmpsim.Result
			r, err = chip.Run(j.alloc)
			if err == nil {
				if j.mi < 0 {
					maxSpeedup[j.bi] = r.WeightedSpeedup
					res.Bundles[j.bi].MaxEffEF = r.EnvyFreeness
				} else {
					res.Bundles[j.bi].Efficiency[j.mi] = r.WeightedSpeedup
					res.Bundles[j.bi].EnvyFreeness[j.mi] = r.EnvyFreeness
					res.Bundles[j.bi].MeanIterations[j.mi] = r.MeanIterations
				}
			}
		}
		if err != nil {
			return fmt.Errorf("fig5 %s/%s: %w", j.bundle.Category, j.alloc.Name(), err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for bi := range res.Bundles {
		if maxSpeedup[bi] <= 0 {
			return nil, fmt.Errorf("fig5: missing MaxEfficiency reference for bundle %d", bi)
		}
		for mi := range res.Mechanisms {
			res.Bundles[bi].Efficiency[mi] /= maxSpeedup[bi]
		}
	}
	return res, nil
}

// RenderFig5 prints the two panels.
func RenderFig5(w io.Writer, r *Fig5Result) {
	fmt.Fprintf(w, "# Figure 5: %d-core detailed simulation (one bundle per category)\n", r.Cores)
	fmt.Fprintf(w, "\n## (a) efficiency (weighted speedup, normalised to MaxEfficiency)\n%8s", "bundle")
	for _, m := range r.Mechanisms {
		fmt.Fprintf(w, " %12s", m)
	}
	fmt.Fprintln(w)
	for _, b := range r.Bundles {
		fmt.Fprintf(w, "%8s", b.Category)
		for mi := range r.Mechanisms {
			fmt.Fprintf(w, " %12.3f", b.Efficiency[mi])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\n## (b) envy-freeness\n%8s", "bundle")
	for _, m := range r.Mechanisms {
		fmt.Fprintf(w, " %12s", m)
	}
	fmt.Fprintf(w, " %12s\n", "MaxEff")
	for _, b := range r.Bundles {
		fmt.Fprintf(w, "%8s", b.Category)
		for mi := range r.Mechanisms {
			fmt.Fprintf(w, " %12.3f", b.EnvyFreeness[mi])
		}
		fmt.Fprintf(w, " %12.3f\n", b.MaxEffEF)
	}
}
