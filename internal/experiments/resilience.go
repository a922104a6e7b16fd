package experiments

import (
	"fmt"
	"io"
	"math"
	"sync"

	"rebudget/internal/cmpsim"
	"rebudget/internal/core"
	"rebudget/internal/fault"
	"rebudget/internal/metrics"
	"rebudget/internal/numeric"
	"rebudget/internal/workload"
)

// DefaultFaultRates is the sweep grid of the resilience experiment: the
// probability that any given monitor reading is corrupted (the solver-stall
// rate tracks it, the per-evaluation utility-fault rate is a tenth of it —
// utilities are evaluated many times per equilibrium, so an equal rate
// would fail essentially every run and measure nothing but the fallback).
var DefaultFaultRates = []float64{0.02, 0.05, 0.10, 0.20}

// faultConfigAt maps one sweep point onto the injector configuration.
func faultConfigAt(rate float64, seed uint64) fault.Config {
	return fault.Config{
		MonitorRate: rate,
		SolverRate:  rate,
		UtilityRate: rate / 10,
		Seed:        seed,
	}
}

// ResilienceRow is one fault-rate point of the sweep.
type ResilienceRow struct {
	FaultRate float64
	// WeightedSpeedup is the achieved efficiency; Retained normalises it
	// to the fault-free baseline run.
	WeightedSpeedup float64
	Retained        float64
	EnvyFreeness    float64
	// MUR and MBR come from the final installed market outcome (NaN if
	// the run ended with no market allocation installed).
	MUR float64
	MBR float64
	// MinMBR is the lowest MBR of any outcome the allocator produced
	// during the run; FloorOK reports it never dipped below the
	// configured ReBudget fairness floor.
	MinMBR  float64
	FloorOK bool
	// Health and Faults are the pipeline telemetry of the run.
	Health metrics.Health
	Faults fault.Stats
}

// ResilienceResult is the fault-rate sweep of one bundle under ReBudget
// with the degraded-mode pipeline active.
type ResilienceResult struct {
	Cores     int
	Mechanism string
	// MBRFloor is the Theorem 2 floor the mechanism guarantees; every
	// row's MinMBR is checked against it.
	MBRFloor float64
	// Baseline is the fault-free weighted speedup all rows normalise to.
	Baseline float64
	// BaselineEF is the fault-free envy-freeness.
	BaselineEF float64
	Rows       []ResilienceRow
}

// floorWatch wraps an allocator to record the minimum MBR across every
// outcome it produces during a run — the per-interval evidence that the
// fairness floor held under faults, not just at the final allocation.
type floorWatch struct {
	inner core.Allocator
	mu    sync.Mutex
	min   float64
	seen  bool
}

func newFloorWatch(inner core.Allocator) *floorWatch {
	return &floorWatch{inner: inner, min: math.Inf(1)}
}

// Name implements core.Allocator.
func (f *floorWatch) Name() string { return f.inner.Name() }

// Allocate implements core.Allocator.
func (f *floorWatch) Allocate(capacity []float64, players []core.PlayerSpec) (*core.Outcome, error) {
	out, err := f.inner.Allocate(capacity, players)
	if err == nil && !math.IsNaN(out.MBR) {
		f.mu.Lock()
		f.seen = true
		if out.MBR < f.min {
			f.min = out.MBR
		}
		f.mu.Unlock()
	}
	return out, err
}

// Rewrap implements core.Wrapper, in place so the caller's handle keeps
// observing the run: it is how the chip's solver-stall hook reaches the
// wrapped mechanism.
func (f *floorWatch) Rewrap(apply func(core.Allocator) core.Allocator) core.Allocator {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.inner = apply(f.inner)
	return f
}

// RunResilience is the engine-scheduled fault sweep. The fault-free
// baseline and every fault-rate point are independent chips (each injector
// seeds its own RNG), so they fan out as cells; Retained is normalised
// against the baseline only after every cell has landed, which keeps the
// rows identical to the old baseline-first serial order.
func (e Engine) RunResilience(cfg cmpsim.Config, seed uint64, rates []float64) (*ResilienceResult, error) {
	if rates == nil {
		rates = DefaultFaultRates
	}
	bundle, err := workload.Generate(workload.CPBN, cfg.Cores, numeric.NewRand(seed))
	if err != nil {
		return nil, err
	}
	mech := core.ReBudget{Step: 20}
	floor, err := mech.EffectiveMBRFloor()
	if err != nil {
		return nil, err
	}
	res := &ResilienceResult{Cores: cfg.Cores, Mechanism: mech.Name(), MBRFloor: floor}

	runAt := func(rate float64) (ResilienceRow, error) {
		runCfg := cfg
		if rate > 0 {
			runCfg.Faults = faultConfigAt(rate, seed)
		}
		chip, err := cmpsim.NewChip(runCfg, bundle)
		if err != nil {
			return ResilienceRow{}, err
		}
		watch := newFloorWatch(mech)
		r, err := chip.Run(watch)
		if err != nil {
			return ResilienceRow{}, err
		}
		row := ResilienceRow{
			FaultRate:       rate,
			WeightedSpeedup: r.WeightedSpeedup,
			EnvyFreeness:    r.EnvyFreeness,
			MUR:             math.NaN(),
			MBR:             math.NaN(),
			MinMBR:          math.NaN(),
			FloorOK:         true,
			Health:          r.Health,
			Faults:          r.Faults,
		}
		if r.FinalOutcome != nil {
			row.MUR = r.FinalOutcome.MUR
			row.MBR = r.FinalOutcome.MBR
		}
		if watch.seen {
			row.MinMBR = watch.min
			row.FloorOK = watch.min >= floor-1e-9
		}
		return row, nil
	}

	// Cell 0 is the fault-free baseline; cells 1..len(rates) are the sweep
	// points, each writing its own row slot.
	rows := make([]ResilienceRow, 1+len(rates))
	err = e.forEach(1+len(rates), func(i int) error {
		rate := 0.0
		if i > 0 {
			rate = rates[i-1]
		}
		row, err := runAt(rate)
		if err != nil {
			if i == 0 {
				return fmt.Errorf("experiments: resilience baseline: %w", err)
			}
			return fmt.Errorf("experiments: resilience at fault rate %g: %w", rate, err)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Baseline = rows[0].WeightedSpeedup
	res.BaselineEF = rows[0].EnvyFreeness
	for _, row := range rows[1:] {
		if res.Baseline > 0 {
			row.Retained = row.WeightedSpeedup / res.Baseline
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// RenderResilience prints the sweep.
func RenderResilience(w io.Writer, r *ResilienceResult) {
	fmt.Fprintf(w, "# Resilience: %d-core detailed simulation, %s under injected faults\n", r.Cores, r.Mechanism)
	fmt.Fprintf(w, "# fault rate = per-reading monitor corruption = solver stall rate; utility fault rate is rate/10\n")
	fmt.Fprintf(w, "# fault-free baseline: weighted speedup %.3f, envy-freeness %.3f; MBR floor %.2f\n",
		r.Baseline, r.BaselineEF, r.MBRFloor)
	fmt.Fprintf(w, "%6s %8s %9s %6s %6s %7s %6s %6s %6s %7s %7s %7s %7s %7s\n",
		"rate", "speedup", "retained", "EF", "MUR", "minMBR", "floor", "fails", "pinned", "repairs", "stalls", "nonconv", "state", "trans")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%6.2f %8.3f %8.1f%% %6.3f %6.3f %7.3f %6v %6d %6d %7d %7d %7d %7s %7d\n",
			row.FaultRate, row.WeightedSpeedup, 100*row.Retained, row.EnvyFreeness,
			row.MUR, row.MinMBR, row.FloorOK,
			row.Health.AllocFailures, row.Health.PinnedIntervals, row.Health.CurveRepairs,
			row.Faults.SolverStalls, row.Health.NonConverged, row.Health.State, row.Health.Transitions)
	}
}
