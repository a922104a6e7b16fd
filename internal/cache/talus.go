package cache

import (
	"fmt"

	"rebudget/internal/numeric"
)

// Talus convexifies a cache's performance-vs-capacity behaviour, following
// Beckmann & Sanchez (HPCA 2015). Given a measured miss curve, it derives
// the convex hull of the corresponding hit curve; the hull's vertices are
// the "points of interest" (PoIs). For an arbitrary capacity target between
// two PoIs, Talus splits the partition into two shadow partitions sized so
// that the achieved miss ratio is the linear interpolation of the PoI miss
// ratios — removing cliffs and making cache utility concave and continuous.

// ShadowSplit describes how to realise a fractional-capacity target t
// (in regions) between two points of interest.
type ShadowSplit struct {
	LoRegions float64 // PoI below (or equal to) the target
	HiRegions float64 // PoI above (or equal to) the target
	Rho       float64 // fraction of the access stream routed to the Lo shadow
	LoLines   float64 // line budget of the Lo shadow partition (ρ·c1)
	HiLines   float64 // line budget of the Hi shadow partition ((1-ρ)·c2)
}

// Talus wraps a miss curve with its convex-hull machinery.
type Talus struct {
	raw  *MissCurve
	hull *numeric.PWL // hit ratio (1 - miss) on the convex hull
	pois []float64    // hull vertex capacities, in regions
}

// NewTalus builds the convex hull of the (monotone-cleaned) miss curve.
func NewTalus(mc *MissCurve) (*Talus, error) {
	if mc == nil {
		return nil, fmt.Errorf("cache: nil miss curve")
	}
	mono := mc.Monotone()
	pts := make([]numeric.Point, len(mono.Ratio))
	for r, m := range mono.Ratio {
		pts[r] = numeric.Point{X: float64(r), Y: 1 - m}
	}
	hullPts := numeric.UpperConvexHull(pts)
	hull, err := numeric.NewPWL(hullPts)
	if err != nil {
		return nil, fmt.Errorf("cache: building talus hull: %w", err)
	}
	t := &Talus{raw: mono, hull: hull}
	for _, p := range hullPts {
		t.pois = append(t.pois, p.X)
	}
	return t, nil
}

// MissAt returns the convexified miss ratio at a fractional region target.
func (t *Talus) MissAt(regions float64) float64 {
	return 1 - t.hull.Eval(regions)
}

// Split computes the shadow-partition configuration achieving the target.
// For targets at or beyond a PoI boundary the split degenerates to a single
// partition (Rho = 1).
func (t *Talus) Split(targetRegions float64) ShadowSplit {
	ps := t.pois
	target := numeric.Clamp(targetRegions, ps[0], ps[len(ps)-1])
	// Find neighbouring PoIs.
	lo, hi := ps[0], ps[len(ps)-1]
	for i := 1; i < len(ps); i++ {
		if ps[i] >= target {
			lo, hi = ps[i-1], ps[i]
			break
		}
	}
	if hi == lo || target >= hi {
		return ShadowSplit{LoRegions: hi, HiRegions: hi, Rho: 1, LoLines: hi * LinesPerRegion}
	}
	if target <= lo {
		return ShadowSplit{LoRegions: lo, HiRegions: lo, Rho: 1, LoLines: lo * LinesPerRegion}
	}
	// Shadow partition sizing (Talus §3): route ρ of the stream to a
	// partition that must behave like a cache of lo regions for that
	// substream, so its size is ρ·lo; the rest sees (1-ρ)·hi. Choosing
	// ρ = (hi-target)/(hi-lo) makes the sizes sum to the target and the
	// miss ratio interpolate linearly between m(lo) and m(hi).
	rho := (hi - target) / (hi - lo)
	return ShadowSplit{
		LoRegions: lo,
		HiRegions: hi,
		Rho:       rho,
		LoLines:   rho * lo * LinesPerRegion,
		HiLines:   (1 - rho) * hi * LinesPerRegion,
	}
}
