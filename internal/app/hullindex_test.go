package app

import (
	"math"
	"testing"

	"rebudget/internal/cache"
	"rebudget/internal/market"
	"rebudget/internal/numeric"
)

// The integer-region index must be invisible: hullAt returns the bits
// PWL.Eval over the same level's knots returns, for every x. These tests
// compare the two on every ladder level of every catalog profile, both
// convexified and raw (NewRawUtility keeps every sample as a knot).

// hullProfile is one catalog profile under test.
type hullProfile struct {
	name string
	p    *utilityProfile
}

func catalogHullProfiles(tb testing.TB) []hullProfile {
	tb.Helper()
	var out []hullProfile
	for _, spec := range Catalog() {
		m := NewModel(spec)
		curve, err := m.AnalyticMissCurve()
		if err != nil {
			tb.Fatal(err)
		}
		for _, build := range []struct {
			kind string
			new  func(*Model, *cache.MissCurve) (*Utility, error)
		}{{"hull", NewUtility}, {"raw", NewRawUtility}} {
			u, err := build.new(m, curve)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, hullProfile{spec.Name + "/" + build.kind, u.prof})
		}
	}
	return out
}

// levelPWL is ladder level k's hull as a plain PWL, the reference hullAt
// must reproduce.
func levelPWL(tb testing.TB, p *utilityProfile, k int) *numeric.PWL {
	tb.Helper()
	row := p.seg[k*p.stride : (k+1)*p.stride]
	pwl, err := numeric.NewPWL(p.knots[row[0] : row[len(row)-1]+1])
	if err != nil {
		tb.Fatal(err)
	}
	return pwl
}

// checkHullAt compares hullAt with PWL.Eval at every x on every level.
func checkHullAt(t *testing.T, name string, p *utilityProfile, xs []float64) {
	t.Helper()
	for k := range p.freqs {
		ref := levelPWL(t, p, k)
		for _, x := range xs {
			got, want := p.hullAt(k, x), ref.Eval(x)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s level %d at x=%v: index %v (%#x), PWL.Eval %v (%#x)",
					name, k, x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// probePoints are every integer region from below the domain to above it,
// the adjacent floats on each side of each, both clamps and NaN.
func probePoints(maxR int) []float64 {
	xs := []float64{math.Inf(-1), -1, 0.5, float64(maxR) + 0.5, math.Inf(1), math.NaN()}
	for c := -1; c <= maxR+1; c++ {
		x := float64(c)
		xs = append(xs, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
	}
	return xs
}

func TestHullIndexMatchesPWLEval(t *testing.T) {
	for _, h := range catalogHullProfiles(t) {
		checkHullAt(t, h.name, h.p, probePoints(h.p.curve.MaxRegions()))
	}
}

// TestHullIndexWideCurve: a UMON cap far above 255 regions must not wrap
// the index, and one too wide for it is refused rather than wrapped.
func TestHullIndexWideCurve(t *testing.T) {
	spec, err := Lookup("mcf")
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(spec)
	wide := func(maxR int) *cache.MissCurve {
		ratio := make([]float64, maxR+1)
		for r := range ratio {
			// A cliff every 64 regions keeps hull and raw knots apart.
			ratio[r] = 0.9 * math.Exp(-float64(r)/200) * (1 - 0.1*float64(r%64)/64)
		}
		mc, err := cache.NewMissCurve(ratio)
		if err != nil {
			t.Fatal(err)
		}
		return mc
	}
	curve := wide(300)
	for _, build := range []func(*Model, *cache.MissCurve) (*Utility, error){NewUtility, NewRawUtility} {
		u, err := build(m, curve)
		if err != nil {
			t.Fatal(err)
		}
		checkHullAt(t, "mcf/300 regions", u.prof, probePoints(300))
	}
	if _, err := NewUtility(m, wide(8000)); err == nil {
		t.Fatal("a curve too wide for the hull index was accepted")
	}
}

func FuzzHullIndex(f *testing.F) {
	for _, x := range []float64{-3, 0, 1, 1.5, 2, 7.999999, 8, 15.25, 16, 17, math.NaN(), math.Inf(1)} {
		f.Add(x)
	}
	profiles := catalogHullProfiles(f)
	refs := make([][]*numeric.PWL, len(profiles))
	for i, h := range profiles {
		for k := range h.p.freqs {
			refs[i] = append(refs[i], levelPWL(f, h.p, k))
		}
	}
	f.Fuzz(func(t *testing.T, x float64) {
		for i, h := range profiles {
			for k, ref := range refs[i] {
				got, want := h.p.hullAt(k, x), ref.Eval(x)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s level %d at x=%v: index %v, PWL.Eval %v", h.name, k, x, got, want)
				}
			}
		}
	})
}

// recorder is a market utility that logs every probe and its value.
type recorder struct {
	u      *Utility
	probes [][]float64
	values []float64
}

func (r *recorder) Value(alloc []float64) float64 {
	v := r.u.Value(alloc)
	r.probes = append(r.probes, append([]float64(nil), alloc...))
	r.values = append(r.values, v)
	return v
}

// TestTwinReplaysHillClimb records the probes a market's hill climb makes
// of a twin and checks each value against a freshly built utility, which
// has evaluated nothing before.
func TestTwinReplaysHillClimb(t *testing.T) {
	var players []*market.Player
	var rec *recorder
	var recModel *Model
	var recCurve *cache.MissCurve
	floorW := 0.0
	for _, name := range []string{"mcf", "swim", "gcc", "hmmer"} {
		spec, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		m := NewModel(spec)
		curve, err := m.AnalyticMissCurve()
		if err != nil {
			t.Fatal(err)
		}
		u, err := NewUtility(m, curve)
		if err != nil {
			t.Fatal(err)
		}
		floorW += u.FloorPowerW()
		var mu market.Utility = u
		if rec == nil {
			rec = &recorder{u: u.Twin()}
			mu = rec
			recModel, recCurve = m, curve
		}
		players = append(players, &market.Player{Name: name, Utility: mu, Budget: 1})
	}
	mk, err := market.New([]float64{12, 40 - floorW}, players, market.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mk.FindEquilibrium(); err != nil {
		t.Fatal(err)
	}
	if len(rec.probes) < 32 {
		t.Fatalf("the hill climb probed the twin only %d times", len(rec.probes))
	}
	for i, a := range rec.probes {
		fresh, err := NewUtility(recModel, recCurve)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rec.values[i], fresh.Value(a); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("probe %d Value(%v): twin %v, fresh utility %v", i, a, got, want)
		}
	}
}
