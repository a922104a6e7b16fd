package numeric

import "sort"

// PWLEval is a memoizing evaluator over a PWL for hot paths that probe the
// same function many times at identical or nearby points — the
// finite-difference pattern of the market's marginal-utility probes. It
// caches the last (x, y) pair and the last segment hit, so a repeated x
// costs one comparison and a neighbouring x a couple, falling back to the
// binary search otherwise. Results are bit-identical to PWL.Eval.
//
// A PWLEval is NOT safe for concurrent use; each goroutine (in the market
// engine: each player, which is owned by exactly one worker per round)
// needs its own evaluator. The underlying PWL stays immutable and shareable.
type PWLEval struct {
	p          *PWL
	seg        int // candidate upper knot index of the containing segment
	lastX      float64
	lastY      float64
	hasLast    bool
	first, end Point // domain boundary knots, hoisted out of the hot path
}

// Evaluator returns a fresh memoizing evaluator for the function, by value
// so a caller with many functions can keep the evaluators in one slice; a
// copy of an evaluator is an independent evaluator.
func (p *PWL) Evaluator() PWLEval {
	return PWLEval{p: p, seg: 1, first: p.knots[0], end: p.knots[len(p.knots)-1]}
}

// Eval returns f(x) exactly as PWL.Eval would.
func (e *PWLEval) Eval(x float64) float64 {
	if e.hasLast && x == e.lastX {
		return e.lastY
	}
	ks := e.p.knots
	var y float64
	switch {
	case x <= e.first.X:
		y = e.first.Y
	case x >= e.end.X:
		y = e.end.Y
	default:
		// PWL.Eval picks the smallest i with ks[i].X >= x; the containing
		// segment is (i-1, i), i.e. ks[i-1].X < x <= ks[i].X. Try the cached
		// segment and its neighbours before the full binary search.
		i := e.seg
		if !(i >= 1 && i < len(ks) && ks[i-1].X < x && x <= ks[i].X) {
			switch {
			case i+1 < len(ks) && ks[i].X < x && x <= ks[i+1].X:
				i++
			case i >= 2 && ks[i-2].X < x && x <= ks[i-1].X:
				i--
			default:
				i = sort.Search(len(ks), func(j int) bool { return ks[j].X >= x })
			}
			e.seg = i
		}
		a, b := ks[i-1], ks[i]
		t := (x - a.X) / (b.X - a.X)
		y = a.Y + t*(b.Y-a.Y)
	}
	e.lastX, e.lastY, e.hasLast = x, y, true
	return y
}
