package core

import (
	"math"
	"runtime"
	"sync"

	"rebudget/internal/market"
)

// The cold equal-budget equilibrium memo.
//
// EqualBudget and the first round of every ReBudget configuration solve the
// same market: equal (weighted) budgets searched from the cold §4.1.2 split.
// Figure 3, Figure 4 and §6.4 run all three on one bundle, so without the
// memo that search runs three times per bundle and gives the same bits each
// time. The first caller searches and stores the converged result; a later
// caller with bit-identical inputs copies it out and runs no search.
//
// The key is exact: the capacity bits, every player's market.IDOf and
// budget bits, and the search fields of the market configuration. A lookup
// is refused — the caller searches as before — when a player's utility is
// not market.Identified (it never matches a stored key), when the
// configuration carries a RoundHook (fault injection and watchdogs must see
// every round), and a run that did not converge is never stored. A hit
// makes no Observer callback: it ran no search. The outcome still reports
// the algorithm's cost (Iterations and Converged are the stored run's).
//
// The ring holds 2 × GOMAXPROCS entries, read once: a parallel sweep stores
// one entry per bundle per worker, and that size keeps every EqualBudget →
// ReBudget reuse while the workers keep pace (a starved worker can lose its
// entry and search again). Entries hold their utilities' keys, so a key
// stays alive, and names one function, while an entry can still match it.
var coldMemo struct {
	mu   sync.Mutex
	ring []coldEntry
	next int
}

// coldEntry is one converged cold search and the inputs that produced it.
// Its buffers are reused by the next store into its slot.
type coldEntry struct {
	capacity []float64
	budgets  []float64
	ids      []market.FuncID
	search   searchFields

	// The run, as flat player × resource rows.
	prices, bids, allocs, utilities, lambdas []float64
	iterations                               int
}

// searchFields are the market.Config fields an equilibrium depends on.
// RoundHook refuses the memo, and Observer only watches.
type searchFields struct {
	minShift  float64
	optimizer market.BidOptimizer
	quanta    int
}

// coldEquilibrium is m's cold search — players at budgets, searched with
// cfg — through the memo. Callers pass only equal-budget markets: they are
// the ones several mechanisms share.
func coldEquilibrium(m *market.Market, capacity []float64, players []PlayerSpec,
	budgets []float64, cfg market.Config) (*market.Equilibrium, error) {
	eq := m.NewEquilibrium()
	// The players' identities are read here, outside the memo's lock:
	// Identity is the caller's code. Sized for the paper's largest chip so
	// they stay on the stack.
	var idBuf [64]market.FuncID
	ids := idBuf[:0]
	for _, p := range players {
		ids = append(ids, market.IDOf(p.Utility))
	}
	memo, s := cfg.RoundHook == nil, searchFields{cfg.MinShiftFraction, cfg.Optimizer, cfg.GreedyQuanta}
	if memo && loadCold(capacity, ids, budgets, s, eq) {
		return eq, nil
	}
	eq, err := market.Settle(m.FindEquilibriumInto(eq, nil))
	if memo && err == nil && eq.Converged {
		storeCold(capacity, ids, budgets, s, eq)
	}
	return eq, err
}

// loadCold copies the stored run for these inputs into dst and reports
// whether there was one.
func loadCold(capacity []float64, ids []market.FuncID, budgets []float64, s searchFields,
	dst *market.Equilibrium) bool {
	coldMemo.mu.Lock()
	defer coldMemo.mu.Unlock()
	for k := range coldMemo.ring {
		e := &coldMemo.ring[k]
		if !e.matches(capacity, ids, budgets, s) {
			continue
		}
		mm := len(capacity)
		copy(dst.Prices, e.prices)
		for i := range dst.Bids {
			copy(dst.Bids[i], e.bids[i*mm:])
			copy(dst.Allocations[i], e.allocs[i*mm:])
		}
		copy(dst.Utilities, e.utilities)
		copy(dst.Lambdas, e.lambdas)
		dst.Iterations, dst.Converged = e.iterations, true
		return true
	}
	return false
}

func (e *coldEntry) matches(capacity []float64, ids []market.FuncID, budgets []float64, s searchFields) bool {
	if len(e.capacity) != len(capacity) || len(e.budgets) != len(budgets) || e.search != s ||
		!sameFloats(e.capacity, capacity) || !sameFloats(e.budgets, budgets) {
		return false
	}
	for i, id := range ids {
		if !e.ids[i].SameFunction(id) {
			return false
		}
	}
	return true
}

func sameFloats(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// storeCold records a converged cold run, unless some player's utility
// names no function.
func storeCold(capacity []float64, ids []market.FuncID, budgets []float64, s searchFields,
	eq *market.Equilibrium) {
	for _, id := range ids {
		// An ID names a function exactly when it is the same function as
		// itself: a non-nil key.
		if !id.SameFunction(id) {
			return
		}
	}
	coldMemo.mu.Lock()
	defer coldMemo.mu.Unlock()
	if coldMemo.ring == nil {
		coldMemo.ring = make([]coldEntry, 2*runtime.GOMAXPROCS(0))
	}
	e := &coldMemo.ring[coldMemo.next]
	coldMemo.next = (coldMemo.next + 1) % len(coldMemo.ring)

	e.capacity = append(e.capacity[:0], capacity...)
	e.budgets = append(e.budgets[:0], budgets...)
	clear(e.ids[:cap(e.ids)]) // drop the keys a shorter market would leave behind
	e.ids = append(e.ids[:0], ids...)
	e.search = s
	e.prices = append(e.prices[:0], eq.Prices...)
	e.bids, e.allocs = e.bids[:0], e.allocs[:0]
	for i := range eq.Bids {
		e.bids = append(e.bids, eq.Bids[i]...)
		e.allocs = append(e.allocs, eq.Allocations[i]...)
	}
	e.utilities = append(e.utilities[:0], eq.Utilities...)
	e.lambdas = append(e.lambdas[:0], eq.Lambdas...)
	e.iterations = eq.Iterations
}
