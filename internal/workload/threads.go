package workload

import (
	"fmt"

	"rebudget/internal/app"
	"rebudget/internal/core"
	"rebudget/internal/market"
	"rebudget/internal/power"
)

// ThreadedApp is a multithreaded application occupying Threads cores, each
// thread running the Spec's behaviour. Following §5's discussion, resources
// are allocated at application granularity: all threads share one market
// player's purse, and the player's allocation is split evenly among its
// threads ("the demand of the threads tend to be similar across threads of
// a parallel application").
type ThreadedApp struct {
	Spec    app.Spec
	Threads int
}

// ThreadedBundle is a workload of multithreaded applications.
type ThreadedBundle struct {
	Apps []ThreadedApp
}

// Cores returns the total core count the bundle occupies.
func (tb ThreadedBundle) Cores() int {
	n := 0
	for _, a := range tb.Apps {
		n += a.Threads
	}
	return n
}

// coalitionUtility evaluates an application-level allocation by splitting
// it evenly across the application's threads and summing the (identical)
// per-thread utilities: U(r) = k·u(r/k). The application's maximum utility
// is therefore its thread count, so summing player utilities reproduces the
// per-core weighted speedup of Equation 5 exactly, and a coalition's
// marginal utility of money is commensurate with a single thread's.
// It is deliberately not market.Identified: k·u(r/k) rescales the argument
// as well as the value, which no (key, scale) pair can name.
type coalitionUtility struct {
	perThread market.Utility
	threads   float64
}

// Value implements market.Utility.
func (c coalitionUtility) Value(alloc []float64) float64 {
	per := make([]float64, len(alloc))
	for j, a := range alloc {
		per[j] = a / c.threads
	}
	return c.threads * c.perThread.Value(per)
}

// NewSetupThreaded assembles an application-granularity market for a
// threaded bundle. Efficiency over this setup is the mean per-thread
// weighted speedup of each application, summed over applications.
func NewSetupThreaded(tb ThreadedBundle) (*Setup, error) {
	if len(tb.Apps) < 2 {
		return nil, fmt.Errorf("workload: threaded bundle needs at least 2 applications")
	}
	cores := tb.Cores()
	n := len(tb.Apps)
	s := &Setup{
		Bundle:    Bundle{Category: "threaded", Apps: make([]app.Spec, 0, n)},
		Players:   make([]core.PlayerSpec, 0, n),
		Models:    make([]*app.Model, 0, n),
		Utilities: make([]*app.Utility, 0, n),
	}
	totalFloorW := 0.0
	prof := newProfiler(app.NewUtility, utilityCatalog)
	for i, ta := range tb.Apps {
		if ta.Threads < 1 {
			return nil, fmt.Errorf("workload: application %d has %d threads", i, ta.Threads)
		}
		m, u, err := prof.profile(ta.Spec)
		if err != nil {
			return nil, err
		}
		k := float64(ta.Threads)
		totalFloorW += u.FloorPowerW() * k
		maxPer := u.MaxUsefulAlloc()
		s.Models = append(s.Models, m)
		s.Utilities = append(s.Utilities, u)
		s.Players = append(s.Players, core.PlayerSpec{
			Name:         fmt.Sprintf("%s×%d", ta.Spec.Name, ta.Threads),
			Utility:      coalitionUtility{perThread: u, threads: k},
			MaxAlloc:     []float64{maxPer[0] * k, maxPer[1] * k},
			MinAlloc:     []float64{0, 0},
			BudgetWeight: k, // equal budget per core, not per application
		})
		s.Bundle.Apps = append(s.Bundle.Apps, ta.Spec)
	}
	regions := float64(3 * cores)
	watts := power.TDPPerCoreW*float64(cores) - totalFloorW
	if watts <= 0 {
		return nil, fmt.Errorf("workload: power floors exhaust the TDP")
	}
	s.Capacity = []float64{regions, watts}
	return s, nil
}

// PerThreadUtilities converts application (coalition) utilities back into
// per-thread normalised performance, for per-application reporting.
func PerThreadUtilities(tb ThreadedBundle, utilities []float64) ([]float64, error) {
	if len(utilities) != len(tb.Apps) {
		return nil, fmt.Errorf("workload: %d utilities for %d applications", len(utilities), len(tb.Apps))
	}
	out := make([]float64, len(utilities))
	for i, ta := range tb.Apps {
		out[i] = utilities[i] / float64(ta.Threads)
	}
	return out, nil
}
