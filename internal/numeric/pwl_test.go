package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewPWLValidation(t *testing.T) {
	if _, err := NewPWL(nil); err == nil {
		t.Fatal("expected error for empty knots")
	}
	if _, err := NewPWL([]Point{{0, 0}, {0, 1}}); err == nil {
		t.Fatal("expected error for duplicate X")
	}
	if _, err := NewPWL([]Point{{0, math.NaN()}}); err == nil {
		t.Fatal("expected error for NaN knot")
	}
	if _, err := NewPWL([]Point{{math.Inf(1), 0}}); err == nil {
		t.Fatal("expected error for infinite knot")
	}
	if _, err := NewPWL([]Point{{0, 0}, {1, 1}}); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestPWLSortsKnots(t *testing.T) {
	p := mustPWL([]Point{{2, 4}, {0, 0}, {1, 1}})
	ks := p.knots
	for i := 1; i < len(ks); i++ {
		if ks[i].X <= ks[i-1].X {
			t.Fatalf("knots not sorted: %v", ks)
		}
	}
}

func TestPWLEvalInterpolatesAndClamps(t *testing.T) {
	p := mustPWL([]Point{{0, 0}, {2, 4}, {4, 4}})
	cases := []struct{ x, want float64 }{
		{-1, 0},  // clamp left
		{0, 0},   // knot
		{1, 2},   // interior interpolation
		{2, 4},   // knot
		{3, 4},   // flat segment
		{5, 4},   // clamp right
		{0.5, 1}, // interior
	}
	for _, c := range cases {
		if got := p.Eval(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Eval(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

// TestPWLEvalNaN: NaN is neither left nor right of the knots, so it must
// not reach the segment search (which would index one past the last knot).
func TestPWLEvalNaN(t *testing.T) {
	for _, c := range []struct {
		name  string
		knots []Point
	}{
		{"one knot", []Point{{3, 7}}},
		{"two knots", []Point{{1, 2}, {3, 6}}},
		{"three knots", []Point{{0, 0}, {2, 4}, {4, 4}}},
	} {
		if got := mustPWL(c.knots).Eval(math.NaN()); !math.IsNaN(got) {
			t.Errorf("%s: Eval(NaN) = %g, want NaN", c.name, got)
		}
	}
}

func TestPWLSingleKnot(t *testing.T) {
	p := mustPWL([]Point{{3, 7}})
	for _, x := range []float64{-10, 3, 10} {
		if got := p.Eval(x); got != 7 {
			t.Errorf("Eval(%g) = %g, want 7", x, got)
		}
	}
}

func mustPWL(knots []Point) *PWL {
	p, err := NewPWL(knots)
	if err != nil {
		panic(err)
	}
	return p
}

// isNonDecreasing and isConcave are the hull tests' shape oracles.
func isNonDecreasing(p *PWL) bool {
	for i := 1; i < len(p.knots); i++ {
		if p.knots[i].Y < p.knots[i-1].Y-1e-12 {
			return false
		}
	}
	return true
}

func isConcave(p *PWL) bool {
	const eps = 1e-9
	prev := math.Inf(1)
	for i := 1; i < len(p.knots); i++ {
		slope := (p.knots[i].Y - p.knots[i-1].Y) / (p.knots[i].X - p.knots[i-1].X)
		if slope > prev+eps {
			return false
		}
		prev = slope
	}
	return true
}

// TestPWLShapePredicates checks the oracles themselves: each must be able
// to fail.
func TestPWLShapePredicates(t *testing.T) {
	concave := mustPWL([]Point{{0, 0}, {1, 2}, {2, 3}, {3, 3.5}})
	if !isConcave(concave) || !isNonDecreasing(concave) {
		t.Error("expected concave non-decreasing")
	}
	cliff := mustPWL([]Point{{0, 0.2}, {1, 0.2}, {2, 1.0}})
	if isConcave(cliff) {
		t.Error("cliff curve misclassified as concave")
	}
	decreasing := mustPWL([]Point{{0, 1}, {1, 0.5}})
	if isNonDecreasing(decreasing) {
		t.Error("decreasing curve misclassified as non-decreasing")
	}
}

// Property: Eval is within the [min Y, max Y] envelope of the knots.
func TestPWLEvalWithinEnvelope(t *testing.T) {
	f := func(ys [5]float64, x float64) bool {
		knots := make([]Point, 0, 5)
		for i, y := range ys {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				y = float64(i)
			}
			knots = append(knots, Point{X: float64(i), Y: y})
		}
		p := mustPWL(knots)
		lo, hi := knots[0].Y, knots[0].Y
		for _, k := range knots {
			lo = math.Min(lo, k.Y)
			hi = math.Max(hi, k.Y)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		got := p.Eval(x)
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Eval at a knot returns the knot Y exactly.
func TestPWLEvalAtKnots(t *testing.T) {
	f := func(ys [6]float64) bool {
		knots := make([]Point, 0, 6)
		for i, y := range ys {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				y = 0
			}
			knots = append(knots, Point{X: float64(i) * 1.5, Y: math.Mod(y, 1e6)})
		}
		p := mustPWL(knots)
		for _, k := range knots {
			if p.Eval(k.X) != k.Y {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
