package server

import (
	"fmt"
	"math"
	"time"

	"rebudget/internal/core"
	"rebudget/internal/market"
	"rebudget/internal/metrics"
	"rebudget/internal/workload"
)

// marketEngine serves analytic-market sessions: each epoch re-runs the
// mechanism on the current (telemetry-adjusted) players, warm-starting the
// equilibrium from the previous epoch's final bids. It is driven only from
// the owning session's goroutine, so it needs no locking of its own.
type marketEngine struct {
	names    []string
	players  []core.PlayerSpec
	capacity []float64
	demand   []float64 // per-player utility multipliers, telemetry-updated

	alloc core.Allocator
	resil *core.Resilient // nil when the session opted out of hardening
	warm  bool

	warmBids [][]float64
	last     *core.Outcome
	lastEF   float64
}

// scaledUtility multiplies a profiled utility surface by a live demand
// factor — the serving layer's stand-in for a phase change reported by the
// tenant's monitors. The factor pointer is written only between epochs by
// the session goroutine, so solves never observe a torn update; scaling by
// the default 1.0 is bit-transparent.
type scaledUtility struct {
	inner market.Utility
	scale *float64
}

// Value implements market.Utility.
func (u scaledUtility) Value(alloc []float64) float64 {
	return *u.scale * u.inner.Value(alloc)
}

// Identity implements market.Identified: the inner function times the
// demand factor's current value, so players running one application stay
// one class while their demands agree and a player whose telemetry moved
// sits alone until its demand returns. Only an unscaled inner utility is
// forwarded — a product of two scales would not name the two roundings
// Value performs.
func (u scaledUtility) Identity() (key any, scale float64) {
	if id, ok := u.inner.(market.Identified); ok {
		if key, scale = id.Identity(); scale == 1 {
			return key, *u.scale
		}
	}
	return nil, 0
}

// newMarketEngine profiles the bundle analytically and assembles the
// session's hardened allocator. The observer receives every equilibrium's
// convergence cost (the server-wide profile).
func newMarketEngine(spec SessionSpec, bundle workload.Bundle,
	observer func(rounds, bidSteps int, wall time.Duration)) (*marketEngine, error) {
	var setup *workload.Setup
	var err error
	if spec.Bandwidth {
		setup, err = workload.NewSetupWithBandwidth(bundle)
	} else {
		setup, err = workload.NewSetup(bundle)
	}
	if err != nil {
		return nil, err
	}
	mech, err := core.ParseMechanism(spec.Mechanism, spec.MinEnvyFreeness)
	if err != nil {
		return nil, err
	}
	e := &marketEngine{
		players:  setup.Players,
		capacity: setup.Capacity,
		demand:   make([]float64, len(setup.Players)),
		warm:     spec.warmStart(),
	}
	for i := range e.players {
		e.names = append(e.names, e.players[i].Name)
		e.demand[i] = 1
		e.players[i].Utility = scaledUtility{inner: e.players[i].Utility, scale: &e.demand[i]}
	}
	alloc := mech
	if spec.resilient() {
		e.resil = core.NewResilient(mech, core.ResilientConfig{})
		alloc = e.resil
	}
	e.alloc = core.WithMarketConfig(alloc, func(mc market.Config) market.Config {
		mc.Observer = observer
		return mc
	})
	return e, nil
}

// step runs one allocation epoch.
func (e *marketEngine) step() error {
	a := e.alloc
	if e.warm {
		// Value mechanisms return a warm-seeded copy; Resilient installs
		// the bids in place and returns itself. Either way the handle we
		// keep is the one that allocates.
		a = core.WithWarmBids(a, e.warmBids)
		e.alloc = a
	}
	out, err := a.Allocate(e.capacity, e.players)
	if err != nil {
		return err
	}
	ef, err := out.EnvyFreeness(e.players)
	if err != nil {
		return err
	}
	e.last = out
	e.lastEF = ef
	if e.warm {
		e.warmBids = out.Bids
	}
	return nil
}

// snapshot fills the market side of a session snapshot: the warm bid
// matrix plus the telemetry-adjusted demand/weight vectors. Called only
// after the owning session loop has exited, so the engine is quiescent.
func (e *marketEngine) snapshot(snap *SessionSnapshot) {
	m := &MarketSnapshot{
		Demand:  append([]float64(nil), e.demand...),
		Weights: make([]float64, len(e.players)),
	}
	for i := range e.players {
		m.Weights[i] = e.players[i].BudgetWeight
	}
	if e.warm && e.warmBids != nil {
		m.WarmBids = make([][]float64, len(e.warmBids))
		for i, row := range e.warmBids {
			m.WarmBids[i] = append([]float64(nil), row...)
		}
	}
	snap.Market = m
}

// restore installs a snapshot's durable state on a freshly built engine.
// Vectors of the wrong shape (a snapshot taken against a different bundle)
// are rejected — the restored session must be the same problem or nothing.
func (e *marketEngine) restore(snap *SessionSnapshot) error {
	m := snap.Market
	if m == nil {
		return fmt.Errorf("snapshot for market session has no market state")
	}
	if len(m.Demand) != len(e.players) || len(m.Weights) != len(e.players) {
		return fmt.Errorf("snapshot shape %d players, engine has %d", len(m.Demand), len(e.players))
	}
	for i, w := range m.Weights {
		if budgetOverflows(w) {
			return fmt.Errorf("snapshot weight %g of player %d overflows the budget", w, i)
		}
	}
	copy(e.demand, m.Demand)
	for i := range e.players {
		if m.Weights[i] > 0 {
			e.players[i].BudgetWeight = m.Weights[i]
		}
	}
	if e.warm && len(m.WarmBids) == len(e.players) {
		// The next step threads these through core.WithWarmBids, so the
		// first post-restore equilibrium runs market.FindEquilibriumFrom —
		// the warm resume the snapshot exists for.
		e.warmBids = m.WarmBids
	}
	return nil
}

// budgetOverflows reports a weight too large to turn into a budget: every
// later solve would fail on a +Inf budget and the session would serve its
// last-known-good outcome forever.
func budgetOverflows(weight float64) bool {
	return math.IsInf(weight*core.InitialBudget, 0)
}

// telemetry applies per-player monitor updates between epochs.
func (e *marketEngine) telemetry(t TelemetrySpec) error {
	if len(t.Switches) > 0 {
		return fmt.Errorf("market sessions take player telemetry, not context switches")
	}
	for _, pt := range t.Players {
		if pt.Player < 0 || pt.Player >= len(e.players) {
			return fmt.Errorf("player %d out of range [0,%d)", pt.Player, len(e.players))
		}
		if pt.Demand < 0 || pt.Weight < 0 {
			return fmt.Errorf("player %d: negative demand/weight", pt.Player)
		}
		if budgetOverflows(pt.Weight) {
			return fmt.Errorf("player %d: weight %g overflows the budget", pt.Player, pt.Weight)
		}
		if pt.Demand > 0 {
			e.demand[pt.Player] = pt.Demand
		}
		if pt.Weight > 0 {
			e.players[pt.Player].BudgetWeight = pt.Weight
		}
	}
	return nil
}

// view renders the mode-specific part of the session view.
func (e *marketEngine) view() SessionView {
	v := SessionView{Mode: ModeMarket, Cores: len(e.players)}
	if e.last != nil {
		v.Alloc = allocationView(e.names, e.last, finitePtr(e.lastEF))
	}
	return v
}

// result is sim-only.
func (e *marketEngine) result() (*SimResultView, error) {
	return nil, fmt.Errorf("result is only available for sim sessions")
}

// cores reports the market's player count — the N in the admission-cost
// prior (equilibrium cost scales with N × rounds).
func (e *marketEngine) cores() int { return len(e.players) }

// healthState reports the Resilient wrapper's backoff position (always
// Healthy for unhardened sessions, which fail loudly instead).
func (e *marketEngine) healthState() metrics.HealthState {
	if e.resil == nil {
		return metrics.Healthy
	}
	return e.resil.HealthState()
}

// allocationView converts an outcome for JSON.
func allocationView(names []string, out *core.Outcome, ef *float64) *AllocationView {
	return &AllocationView{
		Players:         names,
		Allocations:     out.Allocations,
		Budgets:         out.Budgets,
		Utilities:       out.Utilities,
		Lambdas:         out.Lambdas,
		MUR:             finitePtr(out.MUR),
		MBR:             finitePtr(out.MBR),
		PoABound:        finitePtr(out.PoABound()),
		EFBound:         finitePtr(out.EFBound()),
		Efficiency:      out.Efficiency(),
		EnvyFreeness:    ef,
		Iterations:      out.Iterations,
		EquilibriumRuns: out.EquilibriumRuns,
		Converged:       out.Converged,
	}
}

// healthView converts pipeline telemetry for JSON.
func healthView(h metrics.Health) HealthView {
	return HealthView{
		State:           h.State.String(),
		AllocAttempts:   h.AllocAttempts,
		AllocFailures:   h.AllocFailures,
		CurveRepairs:    h.CurveRepairs,
		NonConverged:    h.NonConverged,
		PinnedIntervals: h.PinnedIntervals,
		Transitions:     h.Transitions,
	}
}

// equilibriumView converts convergence-cost counters for JSON.
func equilibriumView(s metrics.EquilibriumStats) EquilibriumView {
	return EquilibriumView{
		Runs:        s.Runs,
		Rounds:      s.Rounds,
		BidSteps:    s.BidSteps,
		WallSeconds: s.Wall.Seconds(),
	}
}
