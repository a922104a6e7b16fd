// Package core implements the paper's contribution — the ReBudget runtime
// budget-reassignment algorithm (§4.2) — together with the competing
// mechanisms it is evaluated against (§6): EqualShare, XChange-EqualBudget,
// XChange-Balanced and the infeasible MaxEfficiency search.
package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"rebudget/internal/market"
	"rebudget/internal/metrics"
)

// InitialBudget is every player's starting budget in the evaluation (§6).
const InitialBudget = 100.0

// PlayerSpec describes one allocation client.
type PlayerSpec struct {
	Name    string
	Utility market.Utility
	// MaxAlloc / MinAlloc are the per-player maximum and minimum
	// meaningful allocations (2 MB + 4.0 GHz vs 128 kB + 800 MHz in the
	// multicore instantiation). XChange-Balanced uses them to size
	// budgets; they default to the full capacity and zero respectively.
	MaxAlloc []float64
	MinAlloc []float64
	// BudgetWeight scales the budget this player receives from
	// budget-assigning mechanisms (EqualBudget, Balanced, ReBudget).
	// Zero means 1. A k-thread application coalition carries weight k so
	// that "equal budget" keeps meaning equal budget *per core* (§5).
	BudgetWeight float64
}

// weight returns the effective budget weight.
func (p PlayerSpec) weight() float64 {
	if p.BudgetWeight <= 0 {
		return 1
	}
	return p.BudgetWeight
}

// Outcome is the result of running an allocation mechanism.
type Outcome struct {
	Mechanism   string
	Allocations [][]float64 // player × resource
	Utilities   []float64
	Budgets     []float64 // nil for non-market mechanisms
	Lambdas     []float64 // nil for non-market mechanisms
	// Bids is the final equilibrium bid matrix (player × resource), nil
	// for non-market mechanisms. Long-lived callers feed it back through
	// WithWarmBids so the next epoch's equilibrium re-converges from the
	// previous one instead of the cold §4.1.2 equal split — how the
	// serving layer keeps steady-state epochs cheap.
	Bids [][]float64
	MUR  float64 // NaN when not applicable
	MBR  float64 // NaN when not applicable
	// Iterations counts bidding–pricing rounds summed over every
	// equilibrium run the mechanism performed; EquilibriumRuns counts the
	// runs themselves (ReBudget re-converges after each budget cut).
	Iterations      int
	EquilibriumRuns int
	Converged       bool
}

// Efficiency is the social welfare of the outcome (weighted speedup).
func (o *Outcome) Efficiency() float64 { return metrics.Efficiency(o.Utilities) }

// EnvyFreeness evaluates Definition 3 for the outcome against the players
// that produced it, once per utility class: players whose utilities are the
// same function (market.FuncID.SameFunction, the contract the equilibrium
// search already relies on) share their representative's evaluations.
func (o *Outcome) EnvyFreeness(players []PlayerSpec) (float64, error) {
	// Sized for the paper's largest chip so the classes stay on the stack.
	var repBuf, classBuf [64]int
	var idBuf [64]market.FuncID
	rep, classes, ids := repBuf[:0], classBuf[:0], idBuf[:0] // classes: the representatives
	for i := range players {
		id := market.IDOf(players[i].Utility)
		rep, ids = append(rep, i), append(ids, id)
		for _, r := range classes {
			if ids[r].SameFunction(id) {
				rep[i] = r
				break
			}
		}
		if rep[i] == i {
			classes = append(classes, i)
		}
	}
	return metrics.EnvyFreeness(len(players), func(i int, alloc []float64) float64 {
		return players[i].Utility.Value(alloc)
	}, o.Allocations, rep)
}

// PoABound returns the Theorem 1 efficiency guarantee implied by the
// outcome's MUR, or NaN for non-market outcomes.
func (o *Outcome) PoABound() float64 {
	if math.IsNaN(o.MUR) {
		return math.NaN()
	}
	return metrics.PoALowerBound(o.MUR)
}

// EFBound returns the Theorem 2 fairness guarantee implied by the outcome's
// MBR, or NaN for non-market outcomes.
func (o *Outcome) EFBound() float64 {
	if math.IsNaN(o.MBR) {
		return math.NaN()
	}
	return metrics.EnvyFreenessBound(o.MBR)
}

// Allocator is a resource-allocation mechanism.
type Allocator interface {
	Name() string
	Allocate(capacity []float64, players []PlayerSpec) (*Outcome, error)
}

// ParseMechanism resolves the mechanism grammar cmd/marketsim and the
// serving daemon share: "equalshare", "equalbudget", "balanced",
// "maxefficiency", "rebudget" (fairness floor derived from minEF by
// Theorem 2) and "rebudget-<step>" (first budget cut step, finite and > 0).
// A ReBudget configuration is resolved here, so any configuration Allocate
// would refuse is refused at parse time.
func ParseMechanism(name string, minEF float64) (Allocator, error) {
	var r ReBudget
	switch {
	case name == "equalshare":
		return EqualShare{}, nil
	case name == "equalbudget":
		return EqualBudget{}, nil
	case name == "balanced":
		return Balanced{}, nil
	case name == "maxefficiency":
		return MaxEfficiency{}, nil
	case name == "rebudget":
		if !(minEF > 0) {
			return nil, fmt.Errorf("mechanism %q needs a minimum envy-freeness > 0", name)
		}
		r = ReBudget{MinEnvyFreeness: minEF}
	case strings.HasPrefix(name, "rebudget-"):
		step, err := strconv.ParseFloat(strings.TrimPrefix(name, "rebudget-"), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rebudget step in %q: %w", name, err)
		}
		if !(step > 0) || math.IsInf(step, 1) {
			return nil, fmt.Errorf("rebudget step in %q must be finite and > 0", name)
		}
		r = ReBudget{Step: step}
	default:
		return nil, fmt.Errorf("unknown mechanism %q", name)
	}
	if _, err := r.EffectiveMBRFloor(); err != nil {
		return nil, fmt.Errorf("mechanism %q: %w", name, err)
	}
	return r, nil
}

// ErrBadInput marks allocation failures caused by invalid player input —
// a utility returning NaN/Inf mid-round, or the degenerate market state
// such a utility induces — rather than by the mechanism itself. Hardened
// callers test with errors.Is and sanitize or fall back; the mechanisms
// guarantee they return this typed error, never NaN budgets.
var ErrBadInput = errors.New("invalid player input")

// Wrapper is implemented by allocators that wrap another one (Resilient,
// telemetry shims). Rewrap replaces the wrapped allocator with f(wrapped) in
// place, under the wrapper's own lock, and returns the wrapper — so handles
// to it (and its stats) stay valid. It is the one obligation a wrapper has
// for WithMarketConfig and WithWarmBids to reach the mechanism inside it.
type Wrapper interface {
	Rewrap(f func(Allocator) Allocator) Allocator
}

// tunable is implemented by the mechanisms that run equilibria: tuned
// returns a copy with edit applied to its market configuration and warm bids.
type tunable interface {
	tuned(edit func(*market.Config, *[][]float64)) Allocator
}

// decorate applies edit to the equilibrium-running mechanism at the bottom
// of a, through any wrappers; every other mechanism passes through unchanged.
func decorate(a Allocator, edit func(*market.Config, *[][]float64)) Allocator {
	switch m := a.(type) {
	case tunable:
		return m.tuned(edit)
	case Wrapper:
		return m.Rewrap(func(inner Allocator) Allocator { return decorate(inner, edit) })
	}
	return a
}

// WithMarketConfig returns a copy of alloc whose inner market configuration
// has been transformed by apply, on mechanisms that run equilibria; any
// other mechanism passes through unchanged. The simulator uses it to
// install profiling observers and hang the fault injector's round hook
// without the allocator types knowing about either.
func WithMarketConfig(a Allocator, apply func(market.Config) market.Config) Allocator {
	return decorate(a, func(mc *market.Config, _ *[][]float64) { *mc = apply(*mc) })
}

// WithWarmBids returns a copy of alloc whose first equilibrium run is
// warm-started from the given bid matrix (normally the Bids of the previous
// epoch's Outcome), on mechanisms that run equilibria; any other mechanism
// passes through unchanged. A nil matrix resets to the cold equal split.
// Rows that do not match the market shape are ignored per player, and bids
// are renormalised to the current budgets (see market.FindEquilibriumFrom),
// so stale matrices are safe, merely useless.
func WithWarmBids(a Allocator, bids [][]float64) Allocator {
	return decorate(a, func(_ *market.Config, warm *[][]float64) { *warm = bids })
}

func validate(capacity []float64, players []PlayerSpec) error {
	if len(capacity) == 0 {
		return fmt.Errorf("core: no resources")
	}
	if len(players) < 2 {
		return fmt.Errorf("core: need at least 2 players, got %d", len(players))
	}
	for i, p := range players {
		if p.Utility == nil {
			return fmt.Errorf("core: player %d (%s) missing utility", i, p.Name)
		}
	}
	return nil
}

// EqualShare partitions every resource evenly among players, the
// market-free baseline of §6.
type EqualShare struct{}

// Name implements Allocator.
func (EqualShare) Name() string { return "EqualShare" }

// Allocate implements Allocator.
func (EqualShare) Allocate(capacity []float64, players []PlayerSpec) (*Outcome, error) {
	if err := validate(capacity, players); err != nil {
		return nil, err
	}
	n := len(players)
	out := &Outcome{
		Mechanism:   "EqualShare",
		Allocations: make([][]float64, n),
		Utilities:   make([]float64, n),
		MUR:         math.NaN(),
		MBR:         math.NaN(),
		Converged:   true,
	}
	// One backing array for all rows: EqualShare runs every epoch of every
	// market-free session, so per-player row allocations dominate its cost.
	flat := make([]float64, n*len(capacity))
	for i, p := range players {
		row := flat[i*len(capacity) : (i+1)*len(capacity) : (i+1)*len(capacity)]
		for j, c := range capacity {
			row[j] = c / float64(n)
		}
		out.Allocations[i] = row
		out.Utilities[i] = p.Utility.Value(row)
	}
	return out, nil
}

// marketOutcome runs one equilibrium with the given budgets and wraps it.
// Non-convergence is accepted explicitly (Settle) and reported through the
// outcome's Converged field, matching the paper's §6.4 fail-safe. A non-nil
// warm matrix seeds the search from a previous equilibrium's bids.
func marketOutcome(name string, capacity []float64, players []PlayerSpec,
	budgets []float64, warm [][]float64, cfg market.Config) (*Outcome, error) {
	mp := make([]*market.Player, len(players))
	for i, p := range players {
		mp[i] = &market.Player{Name: p.Name, Utility: p.Utility, Budget: budgets[i]}
	}
	m, err := market.New(capacity, mp, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w: %w", name, ErrBadInput, err)
	}
	eq, err := market.Settle(m.FindEquilibriumFrom(warm))
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w: %w", name, ErrBadInput, err)
	}
	mur, err := metrics.MUR(eq.Lambdas)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w: %w", name, ErrBadInput, err)
	}
	mbr, err := metrics.MBR(budgets)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w: %w", name, ErrBadInput, err)
	}
	return &Outcome{
		Mechanism:       name,
		Allocations:     eq.Allocations,
		Utilities:       eq.Utilities,
		Budgets:         append([]float64(nil), budgets...),
		Lambdas:         eq.Lambdas,
		Bids:            eq.Bids,
		MUR:             mur,
		MBR:             mbr,
		Iterations:      eq.Iterations,
		EquilibriumRuns: 1,
		Converged:       eq.Converged,
	}, nil
}

// EqualBudget is the XChange baseline: a market where every player holds
// the same budget.
type EqualBudget struct {
	Market market.Config
	// WarmBids optionally seeds the equilibrium search; see WithWarmBids.
	WarmBids [][]float64
}

// Name implements Allocator.
func (EqualBudget) Name() string { return "EqualBudget" }

func (a EqualBudget) tuned(edit func(*market.Config, *[][]float64)) Allocator {
	edit(&a.Market, &a.WarmBids)
	return a
}

// Allocate implements Allocator.
func (a EqualBudget) Allocate(capacity []float64, players []PlayerSpec) (*Outcome, error) {
	if err := validate(capacity, players); err != nil {
		return nil, err
	}
	budgets := make([]float64, len(players))
	for i := range budgets {
		budgets[i] = players[i].weight() * InitialBudget
	}
	return marketOutcome("EqualBudget", capacity, players, budgets, a.WarmBids, a.Market)
}

// Balanced is XChange's wealth-redistribution baseline: each player's
// budget is proportional to its performance "potential", the utility gap
// between its maximum and minimum possible allocations normalised to the
// former (§6).
type Balanced struct {
	Market market.Config
	// WarmBids optionally seeds the equilibrium search; see WithWarmBids.
	WarmBids [][]float64
}

// Name implements Allocator.
func (Balanced) Name() string { return "Balanced" }

func (a Balanced) tuned(edit func(*market.Config, *[][]float64)) Allocator {
	edit(&a.Market, &a.WarmBids)
	return a
}

// Allocate implements Allocator.
func (a Balanced) Allocate(capacity []float64, players []PlayerSpec) (*Outcome, error) {
	if err := validate(capacity, players); err != nil {
		return nil, err
	}
	n := len(players)
	weights := make([]float64, n)
	sum := 0.0
	for i, p := range players {
		maxAlloc := p.MaxAlloc
		if maxAlloc == nil {
			maxAlloc = capacity
		}
		minAlloc := p.MinAlloc
		if minAlloc == nil {
			minAlloc = make([]float64, len(capacity))
		}
		umax := p.Utility.Value(maxAlloc)
		umin := p.Utility.Value(minAlloc)
		// A non-finite potential probe would silently turn into NaN budgets
		// for everyone; surface the culprit as a typed error instead.
		for _, v := range []float64{umax, umin} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("core: Balanced: %w: %w", ErrBadInput,
					&market.UtilityError{Player: i, Name: p.Name, Value: v, Context: "potential probe utility"})
			}
		}
		w := 0.0
		if umax > 0 {
			w = (umax - umin) / umax
		}
		if w < 0 {
			w = 0
		}
		w *= p.weight()
		weights[i] = w
		sum += w
	}
	budgets := make([]float64, n)
	if sum == 0 {
		for i := range budgets {
			budgets[i] = InitialBudget
		}
	} else {
		for i := range budgets {
			// Mean budget stays at InitialBudget so prices remain
			// comparable with EqualBudget.
			budgets[i] = weights[i] / sum * InitialBudget * float64(n)
		}
	}
	return marketOutcome("Balanced", capacity, players, budgets, a.WarmBids, a.Market)
}
