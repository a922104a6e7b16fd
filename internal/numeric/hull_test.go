package numeric

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestUpperConvexHullCliff(t *testing.T) {
	// An mcf-like cliff: flat then a jump. The hull should bridge the flat
	// region with a straight line from the first point to the cliff top.
	var pts []Point
	for i := 1; i <= 10; i++ {
		pts = append(pts, Point{X: float64(i), Y: 0.2})
	}
	pts = append(pts, Point{X: 12, Y: 1.0}, Point{X: 16, Y: 1.0})
	hull := UpperConvexHull(pts)
	p := mustPWL(hull)
	if !isConcave(p) {
		t.Fatalf("hull not concave: %v", hull)
	}
	if !isNonDecreasing(p) {
		t.Fatalf("hull not non-decreasing: %v", hull)
	}
	// The hull at x=6 should be well above the raw 0.2 value.
	if v := p.Eval(6); v <= 0.2 {
		t.Errorf("hull did not bridge cliff: Eval(6)=%g", v)
	}
	// Endpoints preserved.
	if p.Eval(1) != 0.2 || p.Eval(16) != 1.0 {
		t.Errorf("hull endpoints moved: %g, %g", p.Eval(1), p.Eval(16))
	}
}

func TestUpperConvexHullAlreadyConcave(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0.5}, {2, 0.8}, {3, 0.95}, {4, 1.0}}
	hull := UpperConvexHull(pts)
	if len(hull) != len(pts) {
		t.Fatalf("concave input should be unchanged, got %d of %d points", len(hull), len(pts))
	}
}

func TestUpperConvexHullCollinear(t *testing.T) {
	pts := []Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	hull := UpperConvexHull(pts)
	// Interior collinear points are redundant; only endpoints must remain.
	if hull[0] != (Point{0, 0}) || hull[len(hull)-1] != (Point{3, 3}) {
		t.Fatalf("collinear hull endpoints wrong: %v", hull)
	}
	p := mustPWL(hull)
	if math.Abs(p.Eval(1.5)-1.5) > 1e-12 {
		t.Errorf("collinear hull evaluation wrong: %g", p.Eval(1.5))
	}
}

func TestUpperConvexHullDuplicateX(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0.3}, {1, 0.9}, {2, 1.0}}
	hull := UpperConvexHull(pts)
	p := mustPWL(hull)
	if v := p.Eval(1); v < 0.9-1e-12 {
		t.Errorf("duplicate X should keep max Y: Eval(1)=%g", v)
	}
}

func TestUpperConvexHullSmallInputs(t *testing.T) {
	if got := UpperConvexHull(nil); got != nil {
		t.Errorf("nil input should give nil, got %v", got)
	}
	one := UpperConvexHull([]Point{{1, 2}})
	if len(one) != 1 || one[0] != (Point{1, 2}) {
		t.Errorf("single point hull wrong: %v", one)
	}
	two := UpperConvexHull([]Point{{2, 5}, {1, 3}})
	if len(two) != 2 || two[0].X != 1 || two[1].X != 2 {
		t.Errorf("two point hull wrong: %v", two)
	}
}

// Property: the hull is concave, majorizes every input point, and touches
// the extreme-X points.
func TestUpperConvexHullProperties(t *testing.T) {
	f := func(raw [12]float64) bool {
		pts := make([]Point, 0, len(raw))
		for i, y := range raw {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				y = 0
			}
			// Compress into a sane range to avoid precision blowups.
			y = math.Mod(y, 100)
			pts = append(pts, Point{X: float64(i), Y: y})
		}
		hull := UpperConvexHull(pts)
		p, err := NewPWL(hull)
		if err != nil {
			return false
		}
		if !isConcave(p) {
			return false
		}
		for _, q := range pts {
			if p.Eval(q.X) < q.Y-1e-6 {
				return false
			}
		}
		return p.Eval(pts[0].X) == pts[0].Y || p.Eval(pts[len(pts)-1].X) == pts[len(pts)-1].Y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Sorted input skips the copy-and-sort; it must give the same hull as the
// same points shuffled and leave the input untouched.
func TestHullSortedFastPath(t *testing.T) {
	sorted := []Point{{1, 0.2}, {2, 0.2}, {3, 0.25}, {4, 0.9}, {6, 0.95}, {9, 1.0}}
	shuffled := []Point{sorted[3], sorted[0], sorted[5], sorted[2], sorted[1], sorted[4]}
	input := append([]Point(nil), sorted...)
	hull := UpperConvexHull(sorted)
	if !reflect.DeepEqual(hull, UpperConvexHull(shuffled)) {
		t.Fatalf("sorted-path hull %v differs from sort-path hull %v", hull, UpperConvexHull(shuffled))
	}
	if !reflect.DeepEqual(sorted, input) {
		t.Fatalf("UpperConvexHull modified its input: %v", sorted)
	}
	hull[0].Y = -1
	if sorted[0].Y != 0.2 {
		t.Fatal("hull aliases its input")
	}
}
