package workload

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"rebudget/internal/app"
	"rebudget/internal/core"
	"rebudget/internal/fault"
	"rebudget/internal/market"
	"rebudget/internal/numeric"
	"rebudget/internal/trace"
)

// hidden forwards Value and nothing else, so the market cannot see what a
// utility computes: every player is a class of one, the way the tree worked
// before classes existed.
type hidden struct{ u market.Utility }

func (h hidden) Value(alloc []float64) float64 { return h.u.Value(alloc) }

// referencePlayers rebuilds a setup's players the uncollapsed, unshared
// way: every core profiled from scratch — its own model, curve and hulls —
// and the utility's identity hidden. Comparing against it checks the twin
// sharing of NewSetup and the class collapse of the market in one go.
func referencePlayers(t *testing.T, s *Setup) []core.PlayerSpec {
	t.Helper()
	out := make([]core.PlayerSpec, len(s.Players))
	for i, p := range s.Players {
		m := app.NewModel(s.Bundle.Apps[i])
		curve, err := m.AnalyticMissCurve()
		if err != nil {
			t.Fatal(err)
		}
		var u market.Utility
		if len(s.Capacity) == 3 {
			u, err = app.NewBandwidthUtility(m, curve)
		} else {
			u, err = app.NewUtility(m, curve)
		}
		if err != nil {
			t.Fatal(err)
		}
		p.Utility = hidden{u}
		out[i] = p
	}
	return out
}

var classMechanisms = []core.Allocator{
	core.EqualBudget{}, core.Balanced{}, core.ReBudget{Step: 20}, core.ReBudget{Step: 40},
}

// sameOutcomes runs every mechanism cold and then warm-started from its own
// previous outcome on both player sets, and requires every field of every
// Outcome to agree bit for bit.
func sameOutcomes(t *testing.T, label string, capacity []float64, named, reference []core.PlayerSpec) {
	t.Helper()
	for _, mech := range classMechanisms {
		var warmGot, warmWant [][]float64
		for pass := 0; pass < 2; pass++ {
			got, err := core.WithWarmBids(mech, warmGot).Allocate(capacity, named)
			if err != nil {
				t.Fatalf("%s %s pass %d: %v", label, mech.Name(), pass, err)
			}
			want, err := core.WithWarmBids(mech, warmWant).Allocate(capacity, reference)
			if err != nil {
				t.Fatalf("%s %s pass %d (reference): %v", label, mech.Name(), pass, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s pass %d: collapsed outcome differs from the uncollapsed one\ncollapsed:   %+v\nuncollapsed: %+v",
					label, mech.Name(), pass, got, want)
			}
			gotEF, err := got.EnvyFreeness(named)
			if err != nil {
				t.Fatal(err)
			}
			wantEF, err := want.EnvyFreeness(reference)
			if err != nil {
				t.Fatal(err)
			}
			if gotEF != wantEF {
				t.Fatalf("%s %s pass %d: envy-freeness %v, uncollapsed %v", label, mech.Name(), pass, gotEF, wantEF)
			}
			warmGot, warmWant = got.Bids, want.Bids
		}
	}
}

// TestCollapsedMatchesUncollapsed is the differential test the class
// collapse rests on: all six categories at 8 and 64 cores, four mechanisms,
// cold and warm.
func TestCollapsedMatchesUncollapsed(t *testing.T) {
	rng := numeric.NewRand(11)
	for _, cores := range []int{8, 64} {
		for _, cat := range Categories() {
			b, err := Generate(cat, cores, rng)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSetup(b)
			if err != nil {
				t.Fatal(err)
			}
			sameOutcomes(t, fmt.Sprintf("%s/%d", cat, cores), s.Capacity, s.Players, referencePlayers(t, s))
		}
	}
}

// TestCollapsedMatchesUncollapsedWeighted: budget weights split the cores
// running one application across several classes (and, at 64 distinct
// weights, put every core in a class of its own while twins still share
// profiles).
func TestCollapsedMatchesUncollapsedWeighted(t *testing.T) {
	for _, tc := range []struct {
		name   string
		weight func(i int) float64
	}{
		{"three weights", func(i int) float64 { return 1 + float64(i%3)/2 }},
		{"all different", func(i int) float64 { return 1 + float64(i)/100 }},
	} {
		b, err := Generate(CPBB, 64, numeric.NewRand(23))
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSetup(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.Players {
			s.Players[i].BudgetWeight = tc.weight(i)
		}
		sameOutcomes(t, tc.name, s.Capacity, s.Players, referencePlayers(t, s))
	}
}

// TestCollapsedMatchesUncollapsedBandwidth covers the three-resource
// utility, whose profile and identity are a different type.
func TestCollapsedMatchesUncollapsedBandwidth(t *testing.T) {
	for _, cores := range []int{8, 64} {
		b, err := Generate(BBNN, cores, numeric.NewRand(4))
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSetupWithBandwidth(b)
		if err != nil {
			t.Fatal(err)
		}
		sameOutcomes(t, fmt.Sprintf("bandwidth/%d", cores), s.Capacity, s.Players, referencePlayers(t, s))
	}
}

// identityOf reads a utility's name the way the market does.
func identityOf(t *testing.T, u market.Utility) any {
	t.Helper()
	id, ok := u.(market.Identified)
	if !ok {
		t.Fatalf("%T does not name itself", u)
	}
	key, scale := id.Identity()
	if key == nil || scale != 1 {
		t.Fatalf("%T identity (%v, %v), want a key and scale 1", u, key, scale)
	}
	return key
}

// TestNewSetupSharesProfiles: one profile per distinct fingerprint, a
// private utility per core, and a spec that reuses a catalog name with a
// different reuse mix is a different program.
func TestNewSetupSharesProfiles(t *testing.T) {
	b, err := Generate(CPBN, 64, numeric.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	impostor := b.Apps[0]
	impostor.Mix = append([]trace.Component(nil), impostor.Mix...)
	impostor.Mix[0].Weight *= 0.9
	b.Apps[63] = impostor

	check := func(t *testing.T, s *Setup, utilities []market.Utility) {
		prints := map[uint64]any{}
		profiles := map[any]bool{}
		seen := map[market.Utility]bool{}
		for i, u := range utilities {
			if seen[u] {
				t.Errorf("core %d shares its utility instance with an earlier core", i)
			}
			seen[u] = true
			key := identityOf(t, u)
			profiles[key] = true
			fp := b.Apps[i].Fingerprint()
			if first, ok := prints[fp]; ok && first != key {
				t.Errorf("core %d (%s): same fingerprint, different profile", i, b.Apps[i].Name)
			}
			prints[fp] = key
		}
		if len(profiles) != len(prints) {
			t.Errorf("%d profiles for %d distinct fingerprints", len(profiles), len(prints))
		}
		if len(prints) >= len(utilities) {
			t.Fatalf("bundle has no repeated application; the test needs one")
		}
		if identityOf(t, utilities[0]) == identityOf(t, utilities[63]) {
			t.Errorf("%s with a different mix shares the catalog %s's profile", impostor.Name, b.Apps[0].Name)
		}
		models := map[*app.Model]bool{}
		for _, m := range s.Models {
			models[m] = true
		}
		if len(models) != len(prints) {
			t.Errorf("%d models for %d distinct fingerprints", len(models), len(prints))
		}
	}
	utilitiesOf := func(s *Setup) []market.Utility {
		out := make([]market.Utility, len(s.Players))
		for i, p := range s.Players {
			out[i] = p.Utility
		}
		return out
	}

	s, err := NewSetup(b)
	if err != nil {
		t.Fatal(err)
	}
	check(t, s, utilitiesOf(s))
	for i, u := range s.Utilities {
		if market.Utility(u) != s.Players[i].Utility {
			t.Errorf("Utilities[%d] is not the player's utility", i)
		}
	}
	s, err = NewSetupWithBandwidth(b)
	if err != nil {
		t.Fatal(err)
	}
	check(t, s, utilitiesOf(s))

	// Threaded setups share profiles too, but a coalition is not a scale
	// of its thread's function and must stay unnamed.
	tb := ThreadedBundle{Apps: []ThreadedApp{{b.Apps[0], 2}, {b.Apps[0], 4}, {b.Apps[1], 2}, {b.Apps[63], 2}}}
	ts, err := NewSetupThreaded(tb)
	if err != nil {
		t.Fatal(err)
	}
	if identityOf(t, ts.Utilities[0]) != identityOf(t, ts.Utilities[1]) || ts.Utilities[0] == ts.Utilities[1] {
		t.Error("two coalitions of one application: want one profile, two utilities")
	}
	if identityOf(t, ts.Utilities[0]) == identityOf(t, ts.Utilities[3]) {
		t.Error("impostor coalition shares the catalog application's profile")
	}
	for i, p := range ts.Players {
		if _, ok := p.Utility.(market.Identified); ok {
			t.Errorf("coalition %d names itself; k·u(r/k) is not a scale of u", i)
		}
	}
}

// TestTwinsAcrossGoroutines is the guarantee experiments.Engine cells and
// concurrent serving sessions rely on: ReBudget-20 over 64 twins of ~20
// profiles (distinct weights keep every core in its own class, so every
// twin's memo is exercised) while two more goroutines evaluate another pair
// of twins of the same profiles, against the same run with nobody else
// about. Twins share only immutable state, so `-race` has nothing to report
// and the outcomes agree.
func TestTwinsAcrossGoroutines(t *testing.T) {
	b, err := Generate(CPBB, 64, numeric.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSetup(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Players {
		s.Players[i].BudgetWeight = 1 + float64(i)/100
	}
	mech := core.ReBudget{Step: 20}
	quiet, err := mech.Allocate(s.Capacity, s.Players)
	if err != nil {
		t.Fatal(err)
	}

	bystanders := [2]*app.Utility{s.Utilities[0].Twin(), s.Utilities[0].Twin()}
	want := bystanders[0].Twin().Value([]float64{2.5, 6})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, u := range bystanders {
		wg.Add(1)
		go func(u *app.Utility) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				u.Value([]float64{float64(k % 15), float64(k%9) / 2})
				if got := u.Value([]float64{2.5, 6}); got != want {
					t.Errorf("twin evaluated concurrently: %v, want %v", got, want)
					return
				}
			}
		}(u)
	}

	// Several runs, so the bystanders are certainly evaluating during some.
	for run := 0; run < 4; run++ {
		got, err := mech.Allocate(s.Capacity, s.Players)
		if err != nil || !reflect.DeepEqual(got, quiet) {
			t.Errorf("run %d beside busy twins differs from the quiet one (err %v)", run, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestFaultWrappedMarketIsNeverCollapsed: a fault-wrapped utility draws
// from the injector's seeded stream on every evaluation, so the number of
// evaluations is part of its behaviour. The wrapper must not name itself,
// and a market of wrapped twins must fire exactly the faults the same
// market fires with every identity hidden.
func TestFaultWrappedMarketIsNeverCollapsed(t *testing.T) {
	b, err := Generate(CCPP, 64, numeric.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSetup(b)
	if err != nil {
		t.Fatal(err)
	}
	run := func(inner func(market.Utility) market.Utility) (fault.Stats, *core.Outcome, error) {
		in := fault.New(fault.Config{UtilityRate: 1e-3, Seed: 7})
		players := append([]core.PlayerSpec(nil), s.Players...)
		for i := range players {
			players[i].Utility = in.WrapUtility(inner(players[i].Utility))
			if _, ok := players[i].Utility.(market.Identified); ok {
				t.Fatalf("fault-wrapped utility names itself")
			}
		}
		mech := core.ReBudget{Step: 20}
		var out *core.Outcome
		var err error
		// Several allocations, so the stream is long enough for a skipped
		// evaluation to shift a fault.
		for k := 0; k < 4 && err == nil; k++ {
			out, err = mech.Allocate(s.Capacity, players)
		}
		return in.Stats(), out, err
	}
	gotStats, gotOut, gotErr := run(func(u market.Utility) market.Utility { return u })
	wantStats, wantOut, wantErr := run(func(u market.Utility) market.Utility { return hidden{u} })
	if gotStats != wantStats {
		t.Errorf("injector fired %+v over named utilities, %+v over hidden ones", gotStats, wantStats)
	}
	if wantStats.UtilityFaults == 0 {
		t.Error("no fault fired; the comparison proves nothing")
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(gotOut, wantOut) {
		t.Errorf("fault-wrapped outcomes differ: %v / %v", gotErr, wantErr)
	}
}
