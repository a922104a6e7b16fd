package market

import (
	"math"
	"time"
)

// FindEquilibrium runs the iterative bidding–pricing process of §2.1:
//
//  1. every player re-optimises its bids against the others' last bids
//     (derived from the broadcast prices: yᵢⱼ = pⱼ·Cⱼ − bᵢⱼ);
//  2. the market re-prices (Equation 1);
//
// repeating until every price fluctuates by less than priceTolerance (1%)
// between rounds, or maxIterations (30) is hit (the §6.4 fail-safe), in which
// case Converged is false and the last state is returned.
func (m *Market) FindEquilibrium() (*Equilibrium, error) {
	return m.FindEquilibriumFrom(nil)
}

// FindEquilibriumFrom is FindEquilibrium warm-started from an existing bid
// matrix — how ReBudget re-converges cheaply after a budget adjustment
// (§6.4). A nil start means the cold §4.1.2 equal split. Warm-start bids
// are renormalised to the player's current budget in both directions:
// scaled down when the budget shrank, scaled up when it grew (a player
// whose budget was raised would otherwise keep bidding its old, smaller
// total and never spend the increase). A player with positive budget but
// all-zero warm bids falls back to the cold equal split.
//
// Every run is budgeted: maxIterations bounds bidding–pricing
// rounds and Config.RoundHook may abort a round. A run that stops before
// prices settle returns a *NotConvergedError carrying the full partial state
// (utilities and lambdas included) instead of an equilibrium with a silent
// Converged flag; use Settle to accept best-effort state explicitly. A
// player utility producing NaN/Inf surfaces as a *UtilityError.
//
// The search reuses the Market's internal buffers (see Market), so calls on
// one Market must not overlap; the returned Equilibrium is freshly
// allocated and independent of later runs.
func (m *Market) FindEquilibriumFrom(initial [][]float64) (*Equilibrium, error) {
	return m.FindEquilibriumInto(nil, initial)
}

// FindEquilibriumInto is FindEquilibriumFrom writing into dst's slices when
// dst has this market's shape, and allocating as it does otherwise. initial
// may alias dst.Bids. The result, or a NotConvergedError's Partial, is then
// dst itself: the caller gives up what it read there before.
func (m *Market) FindEquilibriumInto(dst *Equilibrium, initial [][]float64) (*Equilibrium, error) {
	var start time.Time
	if m.cfg.Observer != nil {
		start = time.Now()
	}
	n := len(m.players)
	mm := len(m.capacity)

	m.ensureScratch()
	for i, p := range m.players {
		row := m.row(m.curBids, i)
		if initial != nil && i < len(initial) && len(initial[i]) == mm {
			copy(row, initial[i])
			spent := 0.0
			for _, b := range row {
				spent += b
			}
			switch {
			case spent > p.Budget && spent > 0:
				scale := p.Budget / spent
				for j := range row {
					row[j] *= scale
				}
			case spent <= 0 && p.Budget > 0:
				// Nothing to scale: restart this player from the cold
				// equal split so a raised budget is actually spent.
				for j := range row {
					row[j] = p.Budget / float64(mm)
				}
			case spent < p.Budget*(1-1e-9):
				// Budget increased since the warm bids were formed: scale
				// up so the player enters the market at full strength. The
				// relative tolerance leaves budgets that merely accumulated
				// float drift (spent ≈ budget) untouched, keeping unchanged
				// runs bit-identical.
				scale := p.Budget / spent
				for j := range row {
					row[j] *= scale
				}
			}
			continue
		}
		// Round zero: equal split of the budget (§4.1.2 step 1).
		for j := range row {
			row[j] = p.Budget / float64(mm)
		}
	}
	m.classify()
	prices := m.pricesInto(m.curBids, m.priceA)
	nextPrices := m.priceB

	iterations := 0
	steps := 0
	converged := false
	stopReason := "iteration budget exhausted"
	for iterations < m.maxRounds {
		if m.cfg.RoundHook != nil && !m.cfg.RoundHook(iterations+1) {
			stopReason = "aborted by round hook"
			break
		}
		iterations++
		steps += n
		m.runRound(prices)
		newPrices := m.pricesInto(m.nxtBids, nextPrices)
		stable := true
		for j := range newPrices {
			ref := math.Max(prices[j], newPrices[j])
			if ref == 0 {
				continue
			}
			if math.Abs(newPrices[j]-prices[j]) > m.priceTol*ref {
				stable = false
				break
			}
		}
		m.curBids, m.nxtBids = m.nxtBids, m.curBids
		prices, nextPrices = newPrices, prices
		if stable {
			converged = true
			break
		}
	}
	if m.cfg.Observer != nil {
		m.cfg.Observer(iterations, steps, time.Since(start))
	}

	eq := m.shaped(dst)
	eq.Iterations, eq.Converged = iterations, converged
	copy(eq.Prices, prices)
	bids, allocs, finalPrices := eq.Bids, eq.Allocations, eq.Prices
	for i := range bids {
		copy(bids[i], m.row(m.curBids, i))
		clear(allocs[i])
		m.allocateInto(allocs[i], bids[i], finalPrices)
	}
	for i, p := range m.players {
		// A member's final row equals its representative's, so its utility
		// and λ do too. Representatives come first in index order, which
		// also keeps the first failing player reported the same.
		if r := m.classOf[i]; r != i {
			eq.Utilities[i], eq.Lambdas[i] = eq.Utilities[r], eq.Lambdas[r]
			continue
		}
		u := p.Utility.Value(allocs[i])
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return nil, &UtilityError{Player: i, Name: p.Name, Value: u, Context: "utility"}
		}
		eq.Utilities[i] = u
		others := m.scratch.others
		for j := range others {
			y := finalPrices[j]*m.capacity[j] - bids[i][j]
			if y < 0 {
				y = 0
			}
			others[j] = y
		}
		l := lambdaOf(p.Utility, bids[i], others, m.capacity, p.Budget, m.scratch)
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return nil, &UtilityError{Player: i, Name: p.Name, Value: l, Context: "lambda"}
		}
		eq.Lambdas[i] = l
	}
	if !converged {
		return nil, &NotConvergedError{Partial: eq, Reason: stopReason}
	}
	return eq, nil
}

// shaped returns dst if it has this market's shape, else a fresh one.
func (m *Market) shaped(dst *Equilibrium) *Equilibrium {
	n, mm := len(m.players), len(m.capacity)
	fits := dst != nil && len(dst.Prices) == mm && len(dst.Bids) == n &&
		len(dst.Allocations) == n && len(dst.Utilities) == n && len(dst.Lambdas) == n
	for i := 0; fits && i < n; i++ {
		fits = len(dst.Bids[i]) == mm && len(dst.Allocations[i]) == mm
	}
	if fits {
		return dst
	}
	return m.NewEquilibrium()
}

// NewEquilibrium returns a zero Equilibrium of m's shape, whose Bids and
// Allocations are row views over one flat array each: FindEquilibriumInto
// fills it in place.
func (m *Market) NewEquilibrium() *Equilibrium {
	n, mm := len(m.players), len(m.capacity)
	eq := &Equilibrium{Prices: make([]float64, mm), Bids: make([][]float64, n), Allocations: make([][]float64, n),
		Utilities: make([]float64, n), Lambdas: make([]float64, n)}
	bidBuf, allocBuf := make([]float64, n*mm), make([]float64, n*mm)
	for i := range eq.Bids {
		eq.Bids[i], eq.Allocations[i] = m.row(bidBuf, i), m.row(allocBuf, i)
	}
	return eq
}
