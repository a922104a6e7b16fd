// Package metrics implements the paper's efficiency and fairness apparatus:
// Market Utility Range (Definition 5) with its Price-of-Anarchy bound
// (Theorem 1), Market Budget Range (Definition 6) with its approximate
// envy-freeness bound (Theorem 2), social-welfare efficiency (Definition 1)
// and envy-freeness (Definition 3).
package metrics

import (
	"fmt"
	"math"
)

// MUR returns the Market Utility Range min λᵢ / max λᵢ (Definition 5).
// It errors on empty input or negative marginal utilities; a market whose
// maximum λ is zero (nobody can gain from money) has MUR 1 by convention.
func MUR(lambdas []float64) (float64, error) {
	if len(lambdas) == 0 {
		return 0, fmt.Errorf("metrics: MUR of empty lambda set")
	}
	min, max := math.Inf(1), 0.0
	for i, l := range lambdas {
		if l < 0 || math.IsNaN(l) {
			return 0, fmt.Errorf("metrics: invalid lambda %g at player %d", l, i)
		}
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if max == 0 {
		return 1, nil
	}
	return min / max, nil
}

// MBR returns the Market Budget Range min Bᵢ / max Bᵢ (Definition 6).
func MBR(budgets []float64) (float64, error) {
	if len(budgets) == 0 {
		return 0, fmt.Errorf("metrics: MBR of empty budget set")
	}
	min, max := math.Inf(1), 0.0
	for i, b := range budgets {
		if b < 0 || math.IsNaN(b) {
			return 0, fmt.Errorf("metrics: invalid budget %g at player %d", b, i)
		}
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	if max == 0 {
		return 1, nil
	}
	return min / max, nil
}

// PoALowerBound evaluates Theorem 1: the equilibrium efficiency is at least
// this fraction of the optimal allocation's efficiency. For MUR ≥ ½ the
// bound is 1 − 1/(4·MUR) ≥ ½; below ½ it degrades linearly to MUR itself.
func PoALowerBound(mur float64) float64 {
	mur = clamp01(mur)
	if mur >= 0.5 {
		return 1 - 1/(4*mur)
	}
	return mur
}

// EnvyFreenessBound evaluates Theorem 2: any equilibrium under budget range
// MBR is (2·√(1+MBR) − 2)-approximate envy-free. At MBR = 1 (equal budgets)
// this recovers Zhang's 0.828 bound (Lemma 3).
func EnvyFreenessBound(mbr float64) float64 {
	return 2*math.Sqrt(1+clamp01(mbr)) - 2
}

// MinMBRForEnvyFreeness inverts Theorem 2: the smallest budget range that
// still guarantees the given envy-freeness level c. This is how ReBudget
// translates an administrator's fairness floor into a budget constraint
// (§4.2). c must lie in [0, 2√2−2].
func MinMBRForEnvyFreeness(c float64) (float64, error) {
	maxC := 2*math.Sqrt2 - 2
	if c < 0 || c > maxC {
		return 0, fmt.Errorf("metrics: envy-freeness target %g outside [0, %.4f]", c, maxC)
	}
	h := (c + 2) / 2
	return h*h - 1, nil
}

// Efficiency is the social welfare Σᵢ uᵢ (Definition 1). With utilities
// normalised to stand-alone IPC this is exactly weighted speedup (§5).
func Efficiency(utilities []float64) float64 {
	s := 0.0
	for _, u := range utilities {
		s += u
	}
	return s
}

// ValueFunc evaluates player i's utility on an arbitrary allocation vector.
type ValueFunc func(player int, alloc []float64) float64

// EnvyFreeness computes Definition 3 over a full allocation matrix:
// min over players i of Uᵢ(rᵢ) / maxⱼ Uᵢ(rⱼ). A player that values some
// other player's bundle at zero alongside its own (0/0) envies nobody for
// that bundle, so such pairs are skipped.
//
// The inner maximum ranges over the *set* of bundles a player could envy,
// and players running one application share one utility function, so the
// minimum is taken over a set of ratios far smaller than n². rep names the
// utility classes: rep[i] is the lowest index whose utility is bit-identical
// to player i's, and nil makes every player a class of its own. Each class
// representative is evaluated once over each bit-distinct bundle, and a
// member's own utility is read from its representative's row at the column
// of its own bundle: a served 64-core market (~18 classes over ~12 bundles)
// costs ~216 evaluations, not 64 × 13. The minimum is over the same set of
// ratios, so the result is the same float. value must be a pure function of
// its arguments.
func EnvyFreeness(n int, value ValueFunc, allocs [][]float64, rep []int) (float64, error) {
	if n <= 0 || len(allocs) != n {
		return 0, fmt.Errorf("metrics: %d players but %d allocations", n, len(allocs))
	}
	if rep != nil {
		if len(rep) != n {
			return 0, fmt.Errorf("metrics: %d players but %d class representatives", n, len(rep))
		}
		for i, r := range rep {
			if r < 0 || r > i || rep[r] != r {
				return 0, fmt.Errorf("metrics: player %d's representative %d is not a class's lowest index", i, r)
			}
		}
	}
	// Sized for the paper's largest chip so the buffers stay on the stack;
	// a larger market spills to the heap.
	var distinctBuf, bundleBuf [64]int
	var rowBuf [64]float64
	distinct := distinctBuf[:0] // first player holding each distinct bundle
	bundle := bundleBuf[:0]     // player → its bundle's index in distinct
rows:
	for _, row := range allocs {
		for k, j := range distinct {
			if sameRow(allocs[j], row) {
				bundle = append(bundle, k)
				continue rows
			}
		}
		bundle = append(bundle, len(distinct))
		distinct = append(distinct, len(bundle)-1)
	}
	values := rowBuf[:0] // a representative's utility for each distinct bundle
	ef := math.Inf(1)
	for r := 0; r < n; r++ {
		if rep != nil && rep[r] != r {
			continue
		}
		values = values[:0]
		for _, j := range distinct {
			values = append(values, value(r, allocs[j]))
		}
		last := r // the class's last possible member
		if rep != nil {
			last = n - 1
		}
		for i := r; i <= last; i++ {
			if rep != nil && rep[i] != r {
				continue
			}
			own := values[bundle[i]]
			for _, other := range values {
				switch {
				case other == 0:
					continue // nothing to envy
				case own == 0:
					return 0, nil // infinite envy
				default:
					if q := own / other; q < ef {
						ef = q
					}
				}
			}
		}
	}
	if math.IsInf(ef, 1) {
		// Degenerate: all utilities zero everywhere. Nobody envies anyone.
		return 1, nil
	}
	return ef, nil
}

// sameRow reports whether two allocation rows are bit for bit the same.
func sameRow(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
