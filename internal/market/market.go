// Package market implements the dynamic proportional-share market the paper
// adopts from XChange (Wang & Martínez, HPCA 2015). N players bid on M
// divisible resources; the market prices each resource as the sum of bids
// over its capacity (Equation 1) and allocates proportionally to bids. An
// iterative bidding–pricing loop (§2.1) drives the market to equilibrium:
// each round the market broadcasts prices and every player locally
// re-optimises its bids by marginal-utility hill climbing (§4.1.2).
package market

import (
	"fmt"
	"math"
	"time"
)

// Utility is a player's utility over an allocation vector (one entry per
// resource, in resource units). Implementations should be continuous,
// non-decreasing and concave for the theory of §3 to apply; the multicore
// layer guarantees this via Talus convexification.
type Utility interface {
	Value(alloc []float64) float64
}

// Identified is the optional interface by which a utility names the
// function it computes. Two utilities whose keys are equal and non-nil and
// whose scales are bit-equal must return bit-equal Values for every
// allocation; the equilibrium search then solves one of them and copies the
// answer to the other (see classify). The key must be comparable — in
// practice a pointer to the immutable state the implementations share — and
// scale is the single factor a wrapper multiplies that function by, 1 for
// none. Identity is called once per player per equilibrium run and must not
// allocate, which is why it returns two words rather than a struct boxed
// into an interface; it may return a different answer from one run to the
// next. A nil key, like not implementing the interface at all, keeps the
// player in a class of its own.
type Identified interface {
	Utility
	Identity() (key any, scale float64)
}

// FuncID is a utility's Identity, read once so it can be compared many
// times. The zero FuncID, a utility's that is not Identified, names no
// function.
type FuncID struct {
	key   any
	scale float64
}

// IDOf reads u's Identity.
func IDOf(u Utility) FuncID {
	if id, ok := u.(Identified); ok {
		key, scale := id.Identity()
		return FuncID{key, scale}
	}
	return FuncID{}
}

// SameFunction reports whether a and b name one function: an equal non-nil
// key and bit-equal scales, the Identified contract. Utilities whose IDs
// are the same function return bit-equal Values for every allocation.
func (a FuncID) SameFunction(b FuncID) bool {
	return a.key != nil && a.key == b.key && sameBits(a.scale, b.scale)
}

// UtilityFunc adapts a plain function to the Utility interface. It is
// deliberately not Identified: a closure has no identity to compare.
type UtilityFunc func(alloc []float64) float64

// Value implements Utility.
func (f UtilityFunc) Value(alloc []float64) float64 { return f(alloc) }

// Player is one market participant.
type Player struct {
	Name    string
	Utility Utility
	Budget  float64
}

// Config tunes the equilibrium search. Zero values select the paper's
// defaults (see DefaultConfig).
type Config struct {
	// MinShiftFraction stops the hill climb once the shift amount S
	// drops below this fraction of the player's budget (§4.1.2 uses 1%).
	MinShiftFraction float64
	// Optimizer selects the player-local bid search. The default is the
	// paper's exponential hill climb (§4.1.2); GreedyExact is the
	// water-filling reference used by the bid-optimizer ablation.
	Optimizer BidOptimizer
	// GreedyQuanta is the budget granularity of GreedyExact (default 100).
	GreedyQuanta int
	// RoundHook, when non-nil, observes each bidding–pricing round before
	// it executes (1-based). Returning false aborts the run with a
	// NotConvergedError. Watchdogs and the fault-injection framework hang
	// off this hook; nil costs nothing.
	RoundHook func(iteration int) bool
	// Workers is read by nothing.
	//
	// Deprecated: it sized the round-level worker pool, which is gone
	// (DESIGN.md "Retired A/Bs"); the field remains only because the frozen
	// bench/ module sets it, and the next benchmark re-base deletes it.
	Workers int
	// Observer, when non-nil, receives one callback per completed
	// equilibrium search (converged or not) with the rounds executed, the
	// total player bid re-optimisations, and the wall time spent. The
	// metrics.EquilibriumProfile counters hang off this hook; nil costs
	// nothing. Called from whichever goroutine ran the search.
	Observer func(rounds, bidSteps int, wall time.Duration)
}

// priceTolerance declares convergence when every resource price changes by
// less than this relative fraction between rounds (§2.1 uses 1%).
const priceTolerance = 0.01

// maxIterations is the fail-safe bound on bidding–pricing rounds (§6.4
// terminates after 30).
const maxIterations = 30

// lambdaTolerance stops a player's hill climb once its per-resource marginal
// utilities agree within this relative fraction (§4.1.2 uses 5%).
const lambdaTolerance = 0.05

// BidOptimizer selects a player-local bid search strategy.
type BidOptimizer int

// Available optimizers.
const (
	// HillClimb is §4.1.2: shift S of money from the lowest-λ resource
	// to the highest, halving S each round.
	HillClimb BidOptimizer = iota
	// GreedyExact water-fills the budget one quantum at a time by
	// marginal utility — near-exact for concave utilities, ~10× the
	// evaluations.
	GreedyExact
)

// DefaultConfig returns the constants used throughout the paper.
func DefaultConfig() Config {
	return Config{MinShiftFraction: 0.01}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MinShiftFraction <= 0 {
		c.MinShiftFraction = d.MinShiftFraction
	}
	if c.GreedyQuanta <= 0 {
		c.GreedyQuanta = 100
	}
	return c
}

// Market couples players with resource capacities.
//
// A Market owns reusable equilibrium state (double-buffered bid matrices,
// price buffers and scratch space), so a single Market must not run
// FindEquilibrium concurrently with itself. The returned Equilibrium holds
// fresh copies and stays valid across runs, unless the caller hands it back
// to FindEquilibriumInto.
type Market struct {
	capacity []float64
	players  []*Player
	cfg      Config
	// maxRounds and priceTol are maxIterations and priceTolerance, held
	// per market so a test can run one out of rounds.
	maxRounds int
	priceTol  float64

	// Reusable equilibrium state, lazily sized on first use. curBids and
	// nxtBids are flat player × resource bid matrices (see row), swapped
	// each round; priceA/priceB double-buffer the price vector.
	curBids []float64
	nxtBids []float64
	priceA  []float64
	priceB  []float64
	scratch *bidScratch

	// Equivalence classes of the current run, rebuilt by classify at the
	// start of every FindEquilibriumFrom. classOf[i] is the lowest-indexed
	// player no round can tell apart from player i (i itself for a
	// representative); reps lists the representatives in index order. ids
	// holds each player's Identity, read once per run.
	classOf []int
	reps    []int
	ids     []FuncID
}

// New validates inputs and builds a market.
func New(capacity []float64, players []*Player, cfg Config) (*Market, error) {
	if len(capacity) == 0 {
		return nil, fmt.Errorf("market: no resources")
	}
	for j, c := range capacity {
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("market: resource %d has invalid capacity %g", j, c)
		}
	}
	if len(players) < 2 {
		return nil, fmt.Errorf("market: need at least 2 players, got %d", len(players))
	}
	for i, p := range players {
		if p == nil || p.Utility == nil {
			return nil, fmt.Errorf("market: player %d missing utility", i)
		}
		if p.Budget < 0 || math.IsNaN(p.Budget) || math.IsInf(p.Budget, 0) {
			return nil, fmt.Errorf("market: player %d (%s) has invalid budget %g", i, p.Name, p.Budget)
		}
	}
	return &Market{
		capacity:  append([]float64(nil), capacity...),
		players:   players,
		cfg:       cfg.withDefaults(),
		maxRounds: maxIterations,
		priceTol:  priceTolerance,
	}, nil
}

// Close does nothing.
//
// Deprecated: it released the round-level worker pool, which is gone; the
// method remains only because the frozen bench/ module calls it, and the
// next benchmark re-base deletes it.
func (m *Market) Close() {}

// ensureScratch sizes the reusable equilibrium buffers on first use.
func (m *Market) ensureScratch() {
	if m.curBids != nil {
		return
	}
	n, mm := len(m.players), len(m.capacity)
	m.curBids = make([]float64, n*mm)
	m.nxtBids = make([]float64, n*mm)
	m.priceA = make([]float64, mm)
	m.priceB = make([]float64, mm)
	m.scratch = newBidScratch(mm)
	m.classOf = make([]int, n)
	m.reps = make([]int, 0, n)
	m.ids = make([]FuncID, n)
}

// row is player i's row of a flat player × resource matrix.
func (m *Market) row(flat []float64, i int) []float64 {
	mm := len(m.capacity)
	return flat[i*mm : (i+1)*mm : (i+1)*mm]
}

// classify partitions the players into the classes this run cannot tell
// apart. A best response is a function of exactly (utility function,
// budget, own previous bids, broadcast prices), and the prices are common,
// so two players with the same Identity, bit-equal budgets and bit-equal
// starting rows produce bit-equal rows in round one — and then, by
// induction, in every round. The search therefore re-optimises one
// representative per class, the lowest index, and copies its row to the
// members; a market of all-different players is the same code with n
// classes of one. Budgets, identities (a serving session's demand factors)
// and warm rows all move between runs, so the partition is rebuilt each
// time, into buffers the Market owns.
func (m *Market) classify() {
	m.reps = m.reps[:0]
	for i, p := range m.players {
		m.classOf[i] = i
		m.ids[i] = IDOf(p.Utility)
		if m.ids[i].key != nil { // an unnamed utility is a class of its own
			for _, r := range m.reps {
				if m.ids[r].SameFunction(m.ids[i]) &&
					sameBits(m.players[r].Budget, p.Budget) && sameRow(m.row(m.curBids, r), m.row(m.curBids, i)) {
					m.classOf[i] = r
					break
				}
			}
		}
		if m.classOf[i] == i {
			m.reps = append(m.reps, i)
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameRow(a, b []float64) bool {
	for j := range a {
		if !sameBits(a[j], b[j]) {
			return false
		}
	}
	return true
}

// reoptimize computes player i's best response to the broadcast prices into
// its row of the next-round bid matrix: it reads row i of curBids and the
// prices, and writes row i of nxtBids.
func (m *Market) reoptimize(i int, prices []float64) {
	p := m.players[i]
	cur := m.row(m.curBids, i)
	s := m.scratch
	others := s.others
	for j := range m.capacity {
		y := prices[j]*m.capacity[j] - cur[j]
		if y < 0 {
			y = 0
		}
		others[j] = y
	}
	nb := m.row(m.nxtBids, i)
	if m.cfg.Optimizer == GreedyExact {
		optimizeBidsGreedy(p.Utility, p.Budget, others, m.capacity, m.cfg.GreedyQuanta, s, nb)
	} else {
		optimizeBids(p.Utility, p.Budget, others, m.capacity, m.cfg, s, nb)
	}
}

// runRound re-optimises every class representative for one bidding round,
// then hands each member its representative's row.
func (m *Market) runRound(prices []float64) {
	for _, i := range m.reps {
		m.reoptimize(i, prices)
	}
	if len(m.reps) < len(m.players) {
		for i, r := range m.classOf {
			if r != i {
				copy(m.row(m.nxtBids, i), m.row(m.nxtBids, r))
			}
		}
	}
}

// Players returns the participant slice (shared, not copied: budgets are
// mutated by budget-reassignment algorithms between equilibrium runs).
func (m *Market) Players() []*Player { return m.players }

// Equilibrium is the outcome of a bidding–pricing run.
type Equilibrium struct {
	Prices      []float64   // per resource (Equation 1)
	Bids        [][]float64 // player × resource
	Allocations [][]float64 // player × resource (proportional rule)
	Utilities   []float64   // player utility at its allocation
	Lambdas     []float64   // per-player marginal utility of money λᵢ
	Iterations  int         // bidding–pricing rounds executed
	Converged   bool        // prices settled within tolerance
}

// pricesInto computes Equation 1 for a flat bid matrix into a caller-owned
// buffer.
func (m *Market) pricesInto(bids, ps []float64) []float64 {
	mm := len(m.capacity)
	for j := range m.capacity {
		sum := 0.0
		for k := j; k < len(bids); k += mm {
			sum += bids[k]
		}
		ps[j] = sum / m.capacity[j]
	}
	return ps
}

// allocateInto applies the proportional rule rᵢⱼ = bᵢⱼ/pⱼ to one player's
// bid row. Resources nobody bids on are left unallocated (price zero).
func (m *Market) allocateInto(out, bids, prices []float64) {
	for j := range m.capacity {
		if prices[j] > 0 {
			out[j] = bids[j] / prices[j]
		}
	}
}
