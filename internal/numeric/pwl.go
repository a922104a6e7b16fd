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
