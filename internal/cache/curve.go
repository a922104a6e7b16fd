package cache

import "fmt"

// MissCurve is a measured or modelled miss ratio as a function of allocated
// cache regions. Index r holds the miss ratio of a cache of r regions;
// index 0 (no cache) is conventionally 1.
type MissCurve struct {
	Ratio []float64 // Ratio[r] = miss ratio with r regions, r = 0..MaxRegions
}

// NewMissCurve validates the per-region ratios (index 0 = zero regions).
func NewMissCurve(ratio []float64) (*MissCurve, error) {
	if len(ratio) < 2 {
		return nil, fmt.Errorf("cache: miss curve needs at least 2 points, got %d", len(ratio))
	}
	for i, m := range ratio {
		if m < 0 || m > 1 {
			return nil, fmt.Errorf("cache: miss ratio out of range at %d regions: %g", i, m)
		}
	}
	return &MissCurve{Ratio: append([]float64(nil), ratio...)}, nil
}

// MaxRegions returns the largest allocation the curve covers.
func (mc *MissCurve) MaxRegions() int { return len(mc.Ratio) - 1 }

// At returns the miss ratio for a (possibly fractional) number of regions by
// linear interpolation, clamping to the profiled range.
func (mc *MissCurve) At(regions float64) float64 {
	if regions <= 0 {
		return mc.Ratio[0]
	}
	max := float64(mc.MaxRegions())
	if regions >= max {
		return mc.Ratio[mc.MaxRegions()]
	}
	lo := int(regions)
	frac := regions - float64(lo)
	return mc.Ratio[lo] + frac*(mc.Ratio[lo+1]-mc.Ratio[lo])
}

// Monotone returns a copy with any measurement noise removed so the curve is
// non-increasing in allocated capacity (more cache never hurts under LRU
// inclusion; violations are sampling noise).
func (mc *MissCurve) Monotone() *MissCurve {
	out := append([]float64(nil), mc.Ratio...)
	for i := 1; i < len(out); i++ {
		if out[i] > out[i-1] {
			out[i] = out[i-1]
		}
	}
	return &MissCurve{Ratio: out}
}

// Repair sanitizes a raw miss-ratio vector in place so it satisfies the
// invariants NewMissCurve checks and the allocation pipeline assumes:
// every entry finite, within [0, 1], and non-increasing in allocated
// capacity. Non-finite or out-of-range entries inherit their left
// neighbour (conventionally 1 at index 0, the no-cache miss ratio), then a
// monotonicity sweep clamps any remaining upticks. It reports whether
// anything was changed — false means the input was already a valid curve,
// so fault-free runs pass through untouched.
func Repair(ratio []float64) bool {
	changed := false
	for i, m := range ratio {
		if m != m || m < 0 || m > 1 { // NaN, Inf and range violations alike
			if i == 0 {
				ratio[i] = 1
			} else {
				ratio[i] = ratio[i-1]
			}
			changed = true
		}
	}
	for i := 1; i < len(ratio); i++ {
		if ratio[i] > ratio[i-1] {
			ratio[i] = ratio[i-1]
			changed = true
		}
	}
	return changed
}
