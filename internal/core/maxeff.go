package core

import (
	"math"
)

// MaxEfficiency is the infeasible reference allocation of §6: a central,
// very fine-grained hill-climbing search for the allocation maximising
// social welfare. With concave (Talus-convexified) utilities, greedy
// marginal-gain filling followed by inter-player exchange passes converges
// to (a numerical approximation of) the welfare-optimal allocation.
type MaxEfficiency struct{}

const (
	// maxEffUnits controls granularity: each resource is handed out in
	// capacity/maxEffUnits quanta.
	maxEffUnits = 512
	// maxEffPasses bounds the local-improvement phase.
	maxEffPasses = 50
)

// Name implements Allocator.
func (MaxEfficiency) Name() string { return "MaxEfficiency" }

// Allocate implements Allocator.
func (MaxEfficiency) Allocate(capacity []float64, players []PlayerSpec) (*Outcome, error) {
	if err := validate(capacity, players); err != nil {
		return nil, err
	}
	n := len(players)
	m := len(capacity)
	alloc := make([][]float64, n)
	for i := range alloc {
		alloc[i] = make([]float64, m)
	}
	values := make([]float64, n)
	for i, p := range players {
		values[i] = p.Utility.Value(alloc[i])
	}

	// Phase 1: greedy marginal-gain filling, one resource quantum at a
	// time, interleaving resources so cross-resource interactions are
	// reflected in the marginal evaluations.
	quantum := make([]float64, m)
	for j, c := range capacity {
		quantum[j] = c / maxEffUnits
	}
	gain := func(i, j int) float64 {
		alloc[i][j] += quantum[j]
		g := players[i].Utility.Value(alloc[i]) - values[i]
		alloc[i][j] -= quantum[j]
		return g
	}
	for u := 0; u < maxEffUnits; u++ {
		for j := 0; j < m; j++ {
			best, bestGain := 0, math.Inf(-1)
			for i := 0; i < n; i++ {
				if g := gain(i, j); g > bestGain {
					best, bestGain = i, g
				}
			}
			alloc[best][j] += quantum[j]
			values[best] = players[best].Utility.Value(alloc[best])
		}
	}

	// Phase 2: exchange passes — move one quantum of resource j from the
	// donor losing least to the recipient gaining most while total
	// welfare improves.
	for pass := 0; pass < maxEffPasses; pass++ {
		improved := false
		for j := 0; j < m; j++ {
			for {
				// Best recipient.
				ri, rGain := -1, 0.0
				for i := 0; i < n; i++ {
					if g := gain(i, j); g > rGain {
						ri, rGain = i, g
					}
				}
				if ri < 0 {
					break
				}
				// Cheapest donor (other than the recipient).
				di, dLoss := -1, math.Inf(1)
				for i := 0; i < n; i++ {
					if i == ri || alloc[i][j] < quantum[j]-1e-12 {
						continue
					}
					alloc[i][j] -= quantum[j]
					loss := values[i] - players[i].Utility.Value(alloc[i])
					alloc[i][j] += quantum[j]
					if loss < dLoss {
						di, dLoss = i, loss
					}
				}
				if di < 0 || rGain <= dLoss+1e-12 {
					break
				}
				alloc[di][j] -= quantum[j]
				alloc[ri][j] += quantum[j]
				values[di] = players[di].Utility.Value(alloc[di])
				values[ri] = players[ri].Utility.Value(alloc[ri])
				improved = true
			}
		}
		if !improved {
			break
		}
	}

	return &Outcome{
		Mechanism:   "MaxEfficiency",
		Allocations: alloc,
		Utilities:   values,
		MUR:         math.NaN(),
		MBR:         math.NaN(),
		Converged:   true,
	}, nil
}
