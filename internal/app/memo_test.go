package app

import "testing"

// TestUtilityMemoTransparent checks that the per-instance memo (the
// last-watts frequency cache) is semantically invisible: a utility that has
// evaluated an arbitrary probe history returns bit-identical values to a
// freshly built one.
func TestUtilityMemoTransparent(t *testing.T) {
	spec, err := Lookup("mcf")
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(spec)
	curve, err := m.AnalyticMissCurve()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewUtility(m, curve)
	if err != nil {
		t.Fatal(err)
	}
	probes := [][]float64{
		{5.5, 7.25}, {5.5, 7.25}, // repeat: memo hit
		{5.5, 9.0}, // same regions, new watts
		{0, 0}, {15.9, 20}, {1.2, 3.3}, {1.25, 3.3}, {1.3, 3.31},
		{8, 0.5}, {8, 0.5}, {2.75, 12},
	}
	for _, alloc := range probes {
		warm.Value(alloc) // build up memo state
	}
	for _, alloc := range probes {
		fresh, err := NewUtility(m, curve)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := warm.Value(alloc), fresh.Value(alloc); got != want {
			t.Fatalf("Value(%v): memoized %v != fresh %v", alloc, got, want)
		}
	}
}

// TestBandwidthUtilityMemoTransparent is the same property for the
// three-resource utility, whose frequency cache sits under demandGBs/perf.
func TestBandwidthUtilityMemoTransparent(t *testing.T) {
	spec, err := Lookup("swim")
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(spec)
	curve, err := m.AnalyticMissCurve()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewBandwidthUtility(m, curve)
	if err != nil {
		t.Fatal(err)
	}
	probes := [][]float64{
		{5.5, 7.25, 2}, {5.5, 7.25, 2},
		{5.5, 7.25, 6}, {3, 1.5, 0}, {12, 10, 9.5}, {12, 10.01, 9.5},
	}
	for _, alloc := range probes {
		warm.Value(alloc)
	}
	for _, alloc := range probes {
		fresh, err := NewBandwidthUtility(m, curve)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := warm.Value(alloc), fresh.Value(alloc); got != want {
			t.Fatalf("Value(%v): memoized %v != fresh %v", alloc, got, want)
		}
	}
}

// TestTwinSharesProfileNotMemo: a twin computes the same function over the
// same profile, and nothing one instance memoizes is visible to the other.
func TestTwinSharesProfileNotMemo(t *testing.T) {
	spec, err := Lookup("mcf")
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
	tw := u.Twin()
	if tw == u || tw.prof != u.prof {
		t.Fatalf("twin must be a new instance over the same profile")
	}
	u.Value([]float64{5.5, 7.25})
	if !u.freq.ok || tw.freq.ok {
		t.Fatal("twin shares the frequency memo")
	}
	uk, us := u.Identity()
	tk, ts := tw.Identity()
	if uk == nil || uk != tk || us != 1 || ts != 1 {
		t.Errorf("identities (%v, %v) and (%v, %v): want one non-nil key, scale 1", uk, us, tk, ts)
	}
	other, err := NewUtility(m, curve)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := other.Identity(); ok == uk {
		t.Error("a separately built utility shares the first one's identity")
	}
	probes := [][]float64{{5.5, 7.25}, {5.5, 9}, {0, 0}, {15.9, 20}, {1.25, 3.3}, {8, 0.5}}
	for _, a := range probes {
		u.Value(a) // move u's memo, not the twin's
		if got, want := tw.Value(a), other.Value(a); got != want {
			t.Fatalf("twin Value(%v) = %v, fresh utility %v", a, got, want)
		}
	}

	bu, err := NewBandwidthUtility(m, curve)
	if err != nil {
		t.Fatal(err)
	}
	bt := bu.Twin()
	if bt == bu || bt.prof != bu.prof {
		t.Fatalf("bandwidth twin must be a new instance over the same profile")
	}
	if bk, _ := bu.Identity(); bk == uk {
		t.Error("two- and three-resource utilities of one model share an identity")
	}
	for _, a := range [][]float64{{5.5, 7.25, 2}, {5.5, 7.25, 6}, {3, 1.5, 0}, {12, 10, 9.5}} {
		bu.Value(a)
		fresh, err := NewBandwidthUtility(m, curve)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := bt.Value(a), fresh.Value(a); got != want {
			t.Fatalf("bandwidth twin Value(%v) = %v, fresh utility %v", a, got, want)
		}
	}
}
