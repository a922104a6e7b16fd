package core

import (
	"fmt"
	"math"

	"rebudget/internal/market"
	"rebudget/internal/metrics"
)

// ReBudget is the paper's iterative budget-reassignment mechanism (§4.2).
// Starting from equal budgets it repeatedly (1) drives the market to
// equilibrium, (2) cuts the budget of every player whose marginal utility
// of money λᵢ falls below LambdaThreshold of the market maximum by the
// current step, and (3) halves the step — an exponential back-off that
// terminates once the step drops below 1% of the initial budget or no
// player was cut. Budgets never fall below MBRFloor × InitialBudget, so the
// Theorem 2 fairness guarantee chosen by the administrator always holds.
type ReBudget struct {
	// Step is the first budget cut ("ReBudget-20" ⇒ 20). If zero, it is
	// derived from MBRFloor as (1−MBR)·B/2, the §4.2 initialisation.
	Step float64
	// MBRFloor is the lowest admissible ratio of any budget to the
	// maximum budget. If zero, it is derived from Step as the tightest
	// floor the halving sequence can reach.
	MBRFloor float64
	// MinEnvyFreeness, when set, derives MBRFloor from Theorem 2 — the
	// administrator's fairness knob. Takes precedence over MBRFloor.
	MinEnvyFreeness float64
	// LambdaThreshold marks a player "low-λ" when its λᵢ is below this
	// fraction of the market's maximum λ (§4.2 uses 0.5, the point where
	// Theorem 1's guarantee starts degrading linearly).
	LambdaThreshold float64
	// NoBackoff disables the exponential step halving (ablation only):
	// the cut stays at Step every round until no player is cut, the floor
	// absorbs every cut, or maxRounds is reached.
	NoBackoff bool
	// Market configures the inner equilibrium runs.
	Market market.Config
	// WarmBids optionally seeds the first equilibrium run from a previous
	// outcome's bid matrix (see WithWarmBids); later runs always warm-start
	// from the preceding budget step, as in §6.4.
	WarmBids [][]float64
}

const (
	// MinStepFraction terminates ReBudget's back-off once the step falls
	// below this fraction of the initial budget (§4.2 uses 1%). The
	// tenant-level rebalancer ends its reclaim cycles at the same fraction.
	MinStepFraction = 0.01
	// maxRounds is a safety bound on budget-reassignment rounds.
	maxRounds = 30
)

// Name implements Allocator.
func (r ReBudget) Name() string {
	if r.Step > 0 {
		return fmt.Sprintf("ReBudget-%g", r.Step)
	}
	return "ReBudget"
}

func (r ReBudget) tuned(edit func(*market.Config, *[][]float64)) Allocator {
	edit(&r.Market, &r.WarmBids)
	return r
}

func (r ReBudget) withDefaults() (ReBudget, error) {
	// A non-finite knob has no meaning, and +Inf would never leave the
	// halving loop of MaxTotalCut.
	if !finite(r.Step) || !finite(r.MBRFloor) || !finite(r.MinEnvyFreeness) {
		return r, fmt.Errorf("core: ReBudget Step %g, MBRFloor %g and MinEnvyFreeness %g must be finite",
			r.Step, r.MBRFloor, r.MinEnvyFreeness)
	}
	if r.LambdaThreshold <= 0 {
		r.LambdaThreshold = 0.5
	}
	if r.MinEnvyFreeness > 0 {
		mbr, err := metrics.MinMBRForEnvyFreeness(r.MinEnvyFreeness)
		if err != nil {
			return r, err
		}
		r.MBRFloor = mbr
	}
	switch {
	case r.Step <= 0 && r.MBRFloor <= 0:
		return r, fmt.Errorf("core: ReBudget needs Step, MBRFloor or MinEnvyFreeness")
	case r.Step <= 0:
		// §4.2 initialisation from the fairness floor.
		r.Step = (1 - r.MBRFloor) * InitialBudget / 2
	case r.MBRFloor <= 0:
		// Tightest floor the halving sequence can reach: total cut of
		// step + step/2 + … while each term ≥ 1% of the budget.
		r.MBRFloor = (InitialBudget - MaxTotalCut(r.Step, MinStepFraction*InitialBudget)) / InitialBudget
		if r.MBRFloor < 0 {
			r.MBRFloor = 0
		}
	}
	if r.MBRFloor > 1 {
		return r, fmt.Errorf("core: MBR floor %g above 1", r.MBRFloor)
	}
	return r, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// EffectiveMBRFloor resolves the fairness floor this configuration
// guarantees: the lowest admissible ratio of any player's budget to the
// maximum, after the Step/MBRFloor/MinEnvyFreeness derivation rules of
// withDefaults. Tests and the resilience experiment use it to check the
// Theorem 2 guarantee is never violated, faults or not.
func (r ReBudget) EffectiveMBRFloor() (float64, error) {
	cfg, err := r.withDefaults()
	if err != nil {
		return 0, err
	}
	return cfg.MBRFloor, nil
}

// CutSchedule is the §4.2 bounded budget-cut sequence, factored out of
// ReBudget.Allocate so other reassignment loops — notably the tenant-level
// rebalancer in internal/tenant, which reclaims lent budget with the same
// exponential back-off — reuse the exact machinery instead of duplicating
// it. Each Next() yields the cut allowed this round (the current step) and
// halves the step (unless NoBackoff was set); the sequence terminates once
// the step drops below minStep, exactly like ReBudget's loop.
type CutSchedule struct {
	step      float64
	minStep   float64
	noBackoff bool
}

// NewCutSchedule starts a cut sequence at step, terminating below minStep.
// noBackoff disables the halving (the §6 ablation): the cut stays at step
// every round until the caller stops asking.
func NewCutSchedule(step, minStep float64, noBackoff bool) *CutSchedule {
	return &CutSchedule{step: step, minStep: minStep, noBackoff: noBackoff}
}

// Next returns the cut allowed this round and advances the schedule. ok is
// false once the back-off has run below minStep — the caller's signal to
// stop (ReBudget breaks its loop; the tenant rebalancer snaps the residual).
func (c *CutSchedule) Next() (cut float64, ok bool) {
	if c.step < c.minStep {
		return 0, false
	}
	cut = c.step
	if !c.noBackoff {
		c.step /= 2
	}
	return cut, true
}

// MaxTotalCut sums the halving sequence step, step/2, … down to minStep —
// the largest total budget a schedule can ever remove. ReBudget derives its
// tightest reachable MBR floor from it; the tenant layer sizes reclaim
// cycles with it so a loan is recovered within the schedule's lifetime.
func MaxTotalCut(step, minStep float64) float64 {
	total := 0.0
	for s := step; s >= minStep; s /= 2 {
		total += s
	}
	return total
}

// Allocate implements Allocator.
func (r ReBudget) Allocate(capacity []float64, players []PlayerSpec) (*Outcome, error) {
	if err := validate(capacity, players); err != nil {
		return nil, err
	}
	cfg, err := r.withDefaults()
	if err != nil {
		return nil, err
	}
	n := len(players)
	budgets := make([]float64, n)
	weights := make([]float64, n)
	for i := range budgets {
		weights[i] = players[i].weight()
		budgets[i] = weights[i] * InitialBudget
	}
	// Floors, steps and the termination threshold all scale with each
	// player's weight, so the knob's meaning is per-core (§5) and the MBR
	// guarantee holds on the weight-relative budgets.
	sched := NewCutSchedule(cfg.Step, MinStepFraction*InitialBudget, cfg.NoBackoff)

	mp := make([]*market.Player, n)
	for i, p := range players {
		mp[i] = &market.Player{Name: p.Name, Utility: p.Utility, Budget: budgets[i]}
	}
	m, err := market.New(capacity, mp, cfg.Market)
	if err != nil {
		return nil, fmt.Errorf("core: ReBudget: %w: %w", ErrBadInput, err)
	}
	// One Market and one Equilibrium persist across all budget steps: a
	// step reads only the last run's Lambdas and Bids, and only the final
	// run escapes into the Outcome.

	var eq *market.Equilibrium
	warmBids := cfg.WarmBids
	totalIters, runs := 0, 0
	for round := 0; round < maxRounds; round++ {
		// Re-converge from the previous equilibrium's bids: after a
		// budget cut the market is already close, which is what keeps
		// ReBudget's extra equilibrium runs cheap (§6.4). Non-converged
		// runs are accepted explicitly (the §6.4 fail-safe installs the
		// best-effort state); any other equilibrium failure — a NaN/Inf
		// utility mid-round, say — aborts with a typed error so callers
		// never see NaN budgets.
		eq, err = market.Settle(m.FindEquilibriumInto(eq, warmBids))
		if err != nil {
			return nil, fmt.Errorf("core: ReBudget round %d: %w: %w", round, ErrBadInput, err)
		}
		warmBids = eq.Bids
		totalIters += eq.Iterations
		runs++
		step, ok := sched.Next()
		if !ok {
			break
		}
		maxLambda := 0.0
		for _, l := range eq.Lambdas {
			if l > maxLambda {
				maxLambda = l
			}
		}
		cut := false
		for i, l := range eq.Lambdas {
			if l < cfg.LambdaThreshold*maxLambda {
				nb := budgets[i] - step*weights[i]
				if floor := cfg.MBRFloor * weights[i] * InitialBudget; nb < floor {
					nb = floor
				}
				if nb < budgets[i] {
					budgets[i] = nb
					mp[i].Budget = nb
					cut = true
				}
			}
		}
		if !cut {
			break
		}
	}

	mur, err := metrics.MUR(eq.Lambdas)
	if err != nil {
		return nil, fmt.Errorf("core: ReBudget: %w: %w", ErrBadInput, err)
	}
	mbr, err := metrics.MBR(budgets)
	if err != nil {
		return nil, fmt.Errorf("core: ReBudget: %w: %w", ErrBadInput, err)
	}
	return &Outcome{
		Mechanism:       r.Name(),
		Allocations:     eq.Allocations,
		Utilities:       eq.Utilities,
		Budgets:         budgets,
		Lambdas:         eq.Lambdas,
		Bids:            eq.Bids,
		MUR:             mur,
		MBR:             mbr,
		Iterations:      totalIters,
		EquilibriumRuns: runs,
		Converged:       eq.Converged,
	}, nil
}
