package cache

import (
	"math"
	"testing"
	"testing/quick"
)

// mcfLikeCurve reproduces the Figure 2 mcf shape: flat high miss ratio until
// the working set fits at 12 regions, then near-zero.
func mcfLikeCurve() *MissCurve {
	ratio := make([]float64, 17)
	for r := 0; r <= 16; r++ {
		if r < 12 {
			ratio[r] = 0.8
		} else {
			ratio[r] = 0.02
		}
	}
	mc, _ := NewMissCurve(ratio)
	return mc
}

func TestMissCurveValidation(t *testing.T) {
	if _, err := NewMissCurve([]float64{1}); err == nil {
		t.Error("single-point curve accepted")
	}
	if _, err := NewMissCurve([]float64{1, -0.1}); err == nil {
		t.Error("negative ratio accepted")
	}
	if _, err := NewMissCurve([]float64{1, 1.5}); err == nil {
		t.Error("ratio > 1 accepted")
	}
}

func TestMissCurveAt(t *testing.T) {
	mc, _ := NewMissCurve([]float64{1, 0.5, 0.25})
	cases := []struct{ r, want float64 }{
		{-1, 1}, {0, 1}, {0.5, 0.75}, {1, 0.5}, {1.5, 0.375}, {2, 0.25}, {3, 0.25},
	}
	for _, c := range cases {
		if got := mc.At(c.r); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%g) = %g, want %g", c.r, got, c.want)
		}
	}
	if mc.MaxRegions() != 2 {
		t.Errorf("MaxRegions = %d", mc.MaxRegions())
	}
}

func TestMissCurveMonotone(t *testing.T) {
	mc, _ := NewMissCurve([]float64{1, 0.6, 0.7, 0.3})
	m := mc.Monotone()
	want := []float64{1, 0.6, 0.6, 0.3}
	for i := range want {
		if m.Ratio[i] != want[i] {
			t.Errorf("Monotone[%d] = %g, want %g", i, m.Ratio[i], want[i])
		}
	}
	// Original untouched.
	if mc.Ratio[2] != 0.7 {
		t.Error("Monotone mutated the original curve")
	}
}

func TestTalusRemovesCliff(t *testing.T) {
	tal, err := NewTalus(mcfLikeCurve())
	if err != nil {
		t.Fatal(err)
	}
	if !concaveHitCurve(tal) {
		t.Fatal("talus hull not concave/non-decreasing")
	}
	// Raw curve is flat at 0.8 for 6 regions; the hull must do much better.
	raw := tal.raw.At(6)
	hull := tal.MissAt(6)
	if raw < 0.79 {
		t.Fatalf("test premise broken: raw miss at 6 = %g", raw)
	}
	if hull > 0.45 {
		t.Errorf("talus miss at 6 regions = %g, want well below raw 0.8", hull)
	}
	// Hull meets raw curve at the PoIs.
	for _, p := range tal.pois {
		if math.Abs(tal.MissAt(p)-tal.raw.At(p)) > 1e-9 {
			t.Errorf("hull does not touch raw curve at PoI %g", p)
		}
	}
}

func TestTalusLinearInterpolationBetweenPoIs(t *testing.T) {
	tal, _ := NewTalus(mcfLikeCurve())
	pois := tal.pois
	if len(pois) < 2 {
		t.Fatal("expected at least 2 PoIs")
	}
	// Between consecutive PoIs the hull is exactly linear.
	for i := 1; i < len(pois); i++ {
		lo, hi := pois[i-1], pois[i]
		mid := (lo + hi) / 2
		want := (tal.MissAt(lo) + tal.MissAt(hi)) / 2
		if math.Abs(tal.MissAt(mid)-want) > 1e-9 {
			t.Errorf("hull not linear between PoIs %g and %g", lo, hi)
		}
	}
}

func TestTalusSplitGeometry(t *testing.T) {
	tal, _ := NewTalus(mcfLikeCurve())
	for _, target := range []float64{0.5, 3, 6, 9, 11.5, 13} {
		s := tal.Split(target)
		if s.Rho < 0 || s.Rho > 1 {
			t.Errorf("target %g: rho = %g out of range", target, s.Rho)
		}
		totalLines := s.LoLines + s.HiLines
		if math.Abs(totalLines-target*LinesPerRegion) > 1e-6*LinesPerRegion {
			// Degenerate splits clamp to a PoI; only check when interpolating.
			if s.Rho != 1 {
				t.Errorf("target %g: shadow lines %g != target %g",
					target, totalLines, target*LinesPerRegion)
			}
		}
		if s.LoRegions > s.HiRegions {
			t.Errorf("target %g: PoIs out of order: %g > %g", target, s.LoRegions, s.HiRegions)
		}
	}
}

func TestTalusSplitAtPoIIsDegenerate(t *testing.T) {
	tal, _ := NewTalus(mcfLikeCurve())
	for _, p := range tal.pois {
		s := tal.Split(p)
		if s.Rho != 1 {
			t.Errorf("split at PoI %g should be degenerate, got rho=%g", p, s.Rho)
		}
	}
}

func TestTalusSplitInterpolatesMiss(t *testing.T) {
	// The blended miss ratio ρ·m(lo) + (1-ρ)·m(hi) must equal the hull.
	tal, _ := NewTalus(mcfLikeCurve())
	for target := 0.5; target <= 15.5; target += 0.5 {
		s := tal.Split(target)
		blend := s.Rho*tal.raw.At(s.LoRegions) + (1-s.Rho)*tal.raw.At(s.HiRegions)
		if math.Abs(blend-tal.MissAt(target)) > 1e-9 {
			t.Errorf("target %g: blended miss %g != hull miss %g", target, blend, tal.MissAt(target))
		}
	}
}

func TestTalusNilCurve(t *testing.T) {
	if _, err := NewTalus(nil); err == nil {
		t.Error("nil curve accepted")
	}
}

// Property: for any valid random miss curve, the Talus hull is concave,
// non-decreasing in hits, below the raw curve in misses, and bounded [0,1].
func TestTalusHullProperties(t *testing.T) {
	f := func(raw [17]float64) bool {
		ratio := make([]float64, len(raw))
		for i, v := range raw {
			v = math.Abs(math.Mod(v, 1))
			if math.IsNaN(v) {
				v = 0.5
			}
			ratio[i] = v
		}
		mc, err := NewMissCurve(ratio)
		if err != nil {
			return false
		}
		tal, err := NewTalus(mc)
		if err != nil {
			return false
		}
		if !concaveHitCurve(tal) {
			return false
		}
		for r := 0.0; r <= 16; r += 0.25 {
			h := tal.MissAt(r)
			if h < -1e-9 || h > 1+1e-9 {
				return false
			}
			if h > tal.raw.At(r)+1e-9 {
				return false // hull may never be worse than raw
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// concaveHitCurve reports whether the convexified hit curve is concave and
// non-decreasing across its PoIs, the hull's vertices — the property the
// market's theory requires (§4.1.1).
func concaveHitCurve(t *Talus) bool {
	prev := math.Inf(1)
	for i := 1; i < len(t.pois); i++ {
		lo, hi := t.pois[i-1], t.pois[i]
		slope := (t.MissAt(lo) - t.MissAt(hi)) / (hi - lo)
		if slope < -1e-12 || slope > prev+1e-9 {
			return false
		}
		prev = slope
	}
	return true
}
