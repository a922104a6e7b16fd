package market

import "math"

// bidOptimizer implements the player-local hill climb of §4.1.2: starting
// from an equal split of the budget, repeatedly move an amount S of money
// from the resource with the lowest marginal utility λᵢⱼ to the one with the
// highest, halving S each round, until the marginal utilities agree within
// lambdaTolerance or S falls below MinShiftFraction of the budget.
//
// The player predicts its allocation with Equation 2, holding the other
// players' aggregate bids yᵢⱼ fixed.
//
// Every function takes a *bidScratch of reusable work buffers and an `out`
// slice for its result, so the equilibrium hot loop performs no heap
// allocation. Passing nil for either falls back to fresh allocations — the
// convenient form for tests and one-off callers. Buffer reuse never changes
// results: each buffer is fully overwritten before it is read.

// bidScratch holds the reusable buffers, all sized to the resource count M.
// A scratch is owned by exactly one goroutine at a time; sharing one across
// concurrent calls is a data race.
type bidScratch struct {
	others  []float64 // aggregate other-player bids yᵢⱼ
	probe   []float64 // finite-difference probe bid vector
	alloc   []float64 // predicted allocation at the base bids
	allocB  []float64 // predicted allocation at the probe bids
	lambdas []float64 // per-resource marginal utilities
}

func newBidScratch(resources int) *bidScratch {
	buf := make([]float64, 5*resources) // one backing array for all five
	next := func() []float64 {
		s := buf[:resources:resources]
		buf = buf[resources:]
		return s
	}
	return &bidScratch{
		others:  next(),
		probe:   next(),
		alloc:   next(),
		allocB:  next(),
		lambdas: next(),
	}
}

// predictedAlloc evaluates rᵢⱼ = bⱼ/(bⱼ+yⱼ)·Cⱼ for a full bid vector.
func predictedAlloc(bids, others, capacity []float64, out []float64) []float64 {
	if out == nil {
		out = make([]float64, len(capacity))
	}
	for j := range capacity {
		denom := bids[j] + others[j]
		if denom <= 0 {
			// Nobody (including us) bids: a vanishing bid would still
			// capture the whole resource, but with a zero bid we get none.
			out[j] = 0
			continue
		}
		out[j] = bids[j] / denom * capacity[j]
	}
	return out
}

// marginalUtilities computes λᵢⱼ = ∂Uᵢ/∂bᵢⱼ by forward finite differences
// on the predicted allocation. The result lives in s.lambdas and is valid
// until the next call on the same scratch.
func marginalUtilities(u Utility, bids, others, capacity []float64, eps float64, s *bidScratch) []float64 {
	if s == nil {
		s = newBidScratch(len(capacity))
	}
	lambdas := s.lambdas
	base := u.Value(predictedAlloc(bids, others, capacity, s.alloc))
	probe := s.probe
	copy(probe, bids)
	for j := range capacity {
		probe[j] = bids[j] + eps
		pa := predictedAlloc(probe, others, capacity, s.allocB)
		lambdas[j] = (u.Value(pa) - base) / eps
		probe[j] = bids[j]
	}
	return lambdas
}

// optimizeBids returns the player's (approximately) utility-maximising bid
// vector subject to Σⱼ bⱼ ≤ B, given the other players' aggregate bids.
// The result is written into out (allocated when nil).
func optimizeBids(u Utility, budget float64, others, capacity []float64, cfg Config, s *bidScratch, out []float64) []float64 {
	m := len(capacity)
	if out == nil {
		out = make([]float64, m)
	}
	bids := out
	for j := range bids {
		bids[j] = 0
	}
	if budget <= 0 {
		return bids
	}
	if m == 1 {
		bids[0] = budget
		return bids
	}
	if s == nil {
		s = newBidScratch(m)
	}
	for j := range bids {
		bids[j] = budget / float64(m)
	}
	shift := bids[0] / 2
	minShift := cfg.MinShiftFraction * budget
	eps := math.Max(budget*1e-4, 1e-9)
	for shift >= minShift {
		lambdas := marginalUtilities(u, bids, others, capacity, eps, s)
		lo, hi := 0, 0
		for j := 1; j < m; j++ {
			// Money can only leave resources that still have some.
			if bids[j] > 0 && (bids[lo] == 0 || lambdas[j] < lambdas[lo]) {
				lo = j
			}
			if lambdas[j] > lambdas[hi] {
				hi = j
			}
		}
		if lo == hi {
			break
		}
		span := lambdas[hi] - lambdas[lo]
		scale := math.Max(math.Abs(lambdas[hi]), math.Abs(lambdas[lo]))
		if scale == 0 || span <= lambdaTolerance*scale {
			break // marginal utilities equalised (condition (a) of §4.1.2)
		}
		move := math.Min(shift, bids[lo])
		bids[lo] -= move
		bids[hi] += move
		shift /= 2
	}
	return bids
}

// optimizeBidsGreedy is the reference bid optimiser: the budget is split
// into quanta and each quantum goes to the resource with the highest
// marginal utility at the current bids. For concave utilities this
// water-filling is (quantisation aside) exact, making it the yardstick the
// §4.1.2 exponential hill climb is validated against (see the bid-optimizer
// ablation). It costs quanta × M utility evaluations versus the hill
// climb's ~log₂(1/MinShiftFraction) × M.
func optimizeBidsGreedy(u Utility, budget float64, others, capacity []float64, quanta int, s *bidScratch, out []float64) []float64 {
	m := len(capacity)
	if out == nil {
		out = make([]float64, m)
	}
	bids := out
	for j := range bids {
		bids[j] = 0
	}
	if budget <= 0 {
		return bids
	}
	if m == 1 {
		bids[0] = budget
		return bids
	}
	if s == nil {
		s = newBidScratch(m)
	}
	if quanta < 1 {
		quanta = 1
	}
	q := budget / float64(quanta)
	probe, allocA, allocB := s.probe, s.alloc, s.allocB
	for k := 0; k < quanta; k++ {
		base := u.Value(predictedAlloc(bids, others, capacity, allocA))
		best, bestGain := 0, math.Inf(-1)
		copy(probe, bids)
		for j := 0; j < m; j++ {
			probe[j] = bids[j] + q
			gain := u.Value(predictedAlloc(probe, others, capacity, allocB)) - base
			probe[j] = bids[j]
			if gain > bestGain {
				best, bestGain = j, gain
			}
		}
		bids[best] += q
	}
	return bids
}

// lambdaOf reports the player's marginal utility of money λᵢ at its current
// bids: the maximum λᵢⱼ over resources (Equation 4 makes all non-zero-bid
// resources share this value at a local optimum; taking the maximum is
// robust to hill-climb truncation error).
func lambdaOf(u Utility, bids, others, capacity []float64, budget float64, s *bidScratch) float64 {
	eps := math.Max(budget*1e-4, 1e-9)
	lambdas := marginalUtilities(u, bids, others, capacity, eps, s)
	max := 0.0
	for _, l := range lambdas {
		if l > max {
			max = l
		}
	}
	return max
}
