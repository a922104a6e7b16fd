// Package numeric provides small numerical building blocks shared by the
// market, cache and application-model packages: piecewise-linear functions,
// upper convex hulls of sampled curves, summary statistics and deterministic
// random sources.
package numeric

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Point is a 2-D sample of a scalar function y = f(x).
type Point struct {
	X, Y float64
}

// PWL is a continuous piecewise-linear function defined by a sequence of
// knots with strictly increasing X. Evaluation outside the knot range clamps
// to the boundary values, which matches how resource-utility curves behave
// (no extrapolated benefit beyond the largest profiled allocation).
type PWL struct {
	knots []Point
}

// NewPWL builds a piecewise-linear function from the given knots. Knots are
// sorted by X; duplicate X values are rejected.
func NewPWL(knots []Point) (*PWL, error) {
	ks := slices.Clone(knots)
	if !strictlyIncreasingX(ks) {
		slices.SortFunc(ks, func(a, b Point) int { return cmp.Compare(a.X, b.X) })
	}
	return newSortedPWL(ks)
}

// newSortedPWL validates knots already sorted by X and takes ownership of
// the slice.
func newSortedPWL(ks []Point) (*PWL, error) {
	if err := validateSortedKnots(ks); err != nil {
		return nil, err
	}
	return &PWL{knots: ks}, nil
}

func validateSortedKnots(ks []Point) error {
	if len(ks) == 0 {
		return errors.New("numeric: PWL needs at least one knot")
	}
	for i := 1; i < len(ks); i++ {
		if ks[i].X == ks[i-1].X {
			return fmt.Errorf("numeric: duplicate PWL knot at x=%g", ks[i].X)
		}
	}
	for _, k := range ks {
		if math.IsNaN(k.X) || math.IsNaN(k.Y) || math.IsInf(k.X, 0) || math.IsInf(k.Y, 0) {
			return fmt.Errorf("numeric: non-finite PWL knot (%g,%g)", k.X, k.Y)
		}
	}
	return nil
}

// PWLOver is NewPWL by value and without the copy, for knots the caller
// already holds in strictly increasing X order: the function aliases ks,
// which must not be written afterwards. It lets a caller keep many
// functions' knots in one backing array and the functions in one slice.
func PWLOver(ks []Point) (PWL, error) {
	if err := validateSortedKnots(ks); err != nil {
		return PWL{}, err
	}
	if !strictlyIncreasingX(ks) {
		return PWL{}, errors.New("numeric: PWL knots not in increasing x order")
	}
	return PWL{knots: ks}, nil
}

// MustPWL is like NewPWL but panics on error. It is intended for statically
// known knot sets (tests, built-in application models).
func MustPWL(knots []Point) *PWL {
	p, err := NewPWL(knots)
	if err != nil {
		panic(err)
	}
	return p
}

// Knots returns a copy of the function's knots in increasing X order.
func (p *PWL) Knots() []Point {
	out := make([]Point, len(p.knots))
	copy(out, p.knots)
	return out
}

// Eval returns f(x), clamping x to the knot range. Eval(NaN) is NaN.
func (p *PWL) Eval(x float64) float64 {
	ks := p.knots
	switch {
	case x <= ks[0].X:
		return ks[0].Y
	case x >= ks[len(ks)-1].X:
		return ks[len(ks)-1].Y
	case math.IsNaN(x):
		return x
	}
	// Binary search for the segment containing x.
	i := sort.Search(len(ks), func(i int) bool { return ks[i].X >= x })
	a, b := ks[i-1], ks[i]
	t := (x - a.X) / (b.X - a.X)
	return a.Y + t*(b.Y-a.Y)
}

// Min and Max return the knot-range bounds of the domain.
func (p *PWL) Min() float64 { return p.knots[0].X }

// Max returns the largest knot X.
func (p *PWL) Max() float64 { return p.knots[len(p.knots)-1].X }

// IsNonDecreasing reports whether the function never decreases across knots.
func (p *PWL) IsNonDecreasing() bool {
	for i := 1; i < len(p.knots); i++ {
		if p.knots[i].Y < p.knots[i-1].Y-1e-12 {
			return false
		}
	}
	return true
}

// IsConcave reports whether successive segment slopes are non-increasing,
// i.e. the piecewise-linear function is concave.
func (p *PWL) IsConcave() bool {
	const eps = 1e-9
	prev := math.Inf(1)
	for i := 1; i < len(p.knots); i++ {
		dx := p.knots[i].X - p.knots[i-1].X
		slope := (p.knots[i].Y - p.knots[i-1].Y) / dx
		if slope > prev+eps {
			return false
		}
		prev = slope
	}
	return true
}

// Slope returns the left-to-right slope of the segment containing x. At a
// knot the slope of the right-hand segment is returned; beyond the domain the
// slope is zero (values clamp).
func (p *PWL) Slope(x float64) float64 {
	ks := p.knots
	if x < ks[0].X || x >= ks[len(ks)-1].X {
		return 0
	}
	i := sort.Search(len(ks), func(i int) bool { return ks[i].X > x })
	a, b := ks[i-1], ks[i]
	return (b.Y - a.Y) / (b.X - a.X)
}
