package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of an ascending sample: the value
// at rank ⌈p/100·n⌉. supported reports whether at least ten samples lie
// beyond that rank — the rule the choosing-metrics guide sets for quoting a
// tail, and the reason the gated tail is p90 rather than p99.
func percentile(sorted []float64, p float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	rank := rankOf(p, n)
	return sorted[rank-1], n-rank >= 10
}

// rankOf is the nearest rank ⌈p/100·n⌉ clamped to [1, n]; the epsilon keeps
// a product that is a whole number in exact arithmetic from rounding up.
func rankOf(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// highestSupported returns the highest of the candidate percentiles that a
// sample of n values supports under the ten-samples-beyond rule, or 0.
func highestSupported(n int, candidates ...float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if n > 0 && n-rankOf(p, n) >= 10 && p > best {
			best = p
		}
	}
	return best
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an unsorted sample (mean of the middle pair for even n).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// p50 is the nearest-rank median of an unsorted sample.
func p50(xs []float64) float64 {
	v, _ := percentile(sortedCopy(xs), 50)
	return v
}

// windowSpread is how far a metric's per-window values lie apart,
// (max−min)/median: the run's own report of how steady it was.
func windowSpread(perWindow []float64) float64 {
	if len(perWindow) == 0 {
		return math.NaN()
	}
	s := sortedCopy(perWindow)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / math.Abs(m)
}

// splitWindows cuts n items into k contiguous, near-equal-count windows and
// returns the k+1 boundaries. Fewer than k items yield one window per item.
func splitWindows(n, k int) []int {
	if n < k {
		k = n
	}
	if k < 1 {
		return []int{0, n}
	}
	b := make([]int, k+1)
	for i := 0; i <= k; i++ {
		b[i] = i * n / k
	}
	return b
}
