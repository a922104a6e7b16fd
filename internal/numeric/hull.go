package numeric

import (
	"cmp"
	"slices"
)

// UpperConvexHull returns the upper convex hull of the given samples as a
// subset of the input points, sorted by increasing X. The hull is the
// smallest concave piecewise-linear majorant touching the samples; it is the
// construction Talus uses to convexify a cache-utility curve (the retained
// points are the "points of interest").
//
// Input points with duplicate X keep only the one with the largest Y.
func UpperConvexHull(points []Point) []Point {
	if len(points) == 0 {
		return nil
	}
	return AppendUpperConvexHull(make([]Point, 0, len(points)), points)
}

// AppendUpperConvexHull is UpperConvexHull into caller-owned storage: the
// hull is appended to dst and the extended slice returned, so a caller
// building many hulls can keep them in one backing array.
func AppendUpperConvexHull(dst, points []Point) []Point {
	// Sampled curves arrive in increasing X with nothing to deduplicate;
	// anything else is sorted and deduplicated on a private copy.
	uniq := points
	if !strictlyIncreasingX(points) {
		ps := slices.Clone(points)
		slices.SortFunc(ps, func(a, b Point) int {
			if c := cmp.Compare(a.X, b.X); c != 0 {
				return c
			}
			return cmp.Compare(b.Y, a.Y)
		})
		// Drop duplicate X, keeping the max-Y representative (first after sort).
		uniq = ps[:1]
		for _, p := range ps[1:] {
			if p.X != uniq[len(uniq)-1].X {
				uniq = append(uniq, p)
			}
		}
	}
	base := len(dst)
	for _, p := range uniq {
		for len(dst)-base >= 2 && cross(dst[len(dst)-2], dst[len(dst)-1], p) >= 0 {
			dst = dst[:len(dst)-1]
		}
		dst = append(dst, p)
	}
	return dst
}

// strictlyIncreasingX reports whether the points are already sorted by X
// with no duplicates (false as soon as a NaN is compared).
func strictlyIncreasingX(points []Point) bool {
	for i := 1; i < len(points); i++ {
		if !(points[i-1].X < points[i].X) {
			return false
		}
	}
	return true
}

// cross computes the z-component of (b-a) × (c-a). A non-negative value
// means b lies on or below the segment a→c, i.e. b is not an upper-hull
// vertex.
func cross(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}
