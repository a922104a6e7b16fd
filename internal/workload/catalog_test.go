package workload

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"rebudget/internal/app"
	"rebudget/internal/market"
	"rebudget/internal/numeric"
)

// grid is a fixed set of allocations over both utility kinds' resources
// (a two-resource utility reads the first two coordinates).
func grid() [][]float64 {
	var out [][]float64
	for _, r := range []float64{0, 0.5, 3, 7.25, 15} {
		for _, w := range []float64{0, 1.5, 4, 9} {
			for _, bw := range []float64{0, 0.4, 2} {
				out = append(out, []float64{r, w, bw})
			}
		}
	}
	return out
}

// freshUtility profiles spec from scratch, the way no table is involved.
func freshUtility(t *testing.T, spec app.Spec, bandwidth bool) market.Utility {
	t.Helper()
	m := app.NewModel(spec)
	curve, err := m.AnalyticMissCurve()
	if err != nil {
		t.Fatal(err)
	}
	if bandwidth {
		u, err := app.NewBandwidthUtility(m, curve)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	u, err := app.NewUtility(m, curve)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestCatalogTableConcurrentSetups: goroutines build both setup kinds at
// once over bundles that share catalog applications, so the table's entries
// are filled and read concurrently (run under -race); every player still
// computes exactly what a utility profiled from scratch computes.
func TestCatalogTableConcurrentSetups(t *testing.T) {
	const workers = 8
	bundles := make([]Bundle, workers)
	rng := numeric.NewRand(17)
	for w := range bundles {
		b, err := Generate(Categories()[w%len(Categories())], 16, rng)
		if err != nil {
			t.Fatal(err)
		}
		bundles[w] = b
	}
	setups := make([]*Setup, 2*workers)
	errs := make([]error, 2*workers)
	var wg sync.WaitGroup
	for w, b := range bundles {
		wg.Add(2)
		go func() { defer wg.Done(); setups[2*w], errs[2*w] = NewSetup(b) }()
		go func() { defer wg.Done(); setups[2*w+1], errs[2*w+1] = NewSetupWithBandwidth(b) }()
	}
	wg.Wait()
	allocs := grid()
	for k, s := range setups {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		bandwidth := k%2 == 1
		for i, p := range s.Players {
			want := freshUtility(t, s.Bundle.Apps[i], bandwidth)
			for _, a := range allocs {
				if !bandwidth {
					a = a[:2]
				}
				if g, w := p.Utility.Value(a), want.Value(a); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("setup %d core %d (%s) at %v: %v, want %v", k, i, p.Name, a, g, w)
				}
			}
		}
	}
}

// TestCatalogTableUnpoisonedAndBounded: a spec reusing a catalog name with
// other parameters is profiled on its own and does not become the catalog
// program for anyone after it, and a whole sweep's worth of bundles leaves
// the table at one entry per catalog application of each kind.
func TestCatalogTableUnpoisonedAndBounded(t *testing.T) {
	genuine, err := app.Lookup("mcf")
	if err != nil {
		t.Fatal(err)
	}
	impostor := genuine
	impostor.CPIBase *= 1.25
	s, err := NewSetup(Bundle{Category: CPBN, Apps: []app.Spec{impostor, genuine, impostor}})
	if err != nil {
		t.Fatal(err)
	}
	entry, err := utilityCatalog[genuine.Fingerprint()]()
	if err != nil {
		t.Fatal(err)
	}
	catalogKey := identityOf(t, entry.utility)
	if !reflect.DeepEqual(entry.model.Spec, genuine) {
		t.Errorf("the table's mcf was built from %+v", entry.model.Spec)
	}
	if k := identityOf(t, s.Players[0].Utility); k == catalogKey || k != identityOf(t, s.Players[2].Utility) {
		t.Error("the impostor did not get a profile of its own")
	}
	if identityOf(t, s.Players[1].Utility) != catalogKey {
		t.Error("the catalog mcf after an impostor is not the catalog-built profile")
	}
	if _, ok := utilityCatalog[impostor.Fingerprint()]; ok {
		t.Error("an off-catalog spec entered the table")
	}

	rng := numeric.NewRand(1)
	for k := 0; k < 480; k++ {
		b, err := Generate(Categories()[k%len(Categories())], 64, rng)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewSetup(b); err != nil {
			t.Fatal(err)
		}
		if _, err := NewSetupWithBandwidth(b); err != nil {
			t.Fatal(err)
		}
	}
	if n, m, want := len(utilityCatalog), len(bandwidthCatalog), len(app.Catalog()); n != want || m != want {
		t.Errorf("tables hold %d and %d entries, want %d each", n, m, want)
	}
	if again, _ := utilityCatalog[genuine.Fingerprint()](); identityOf(t, again.utility) != catalogKey {
		t.Error("the table's mcf entry was rebuilt")
	}
}
