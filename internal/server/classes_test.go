package server

import (
	"reflect"
	"testing"

	"rebudget/internal/market"
)

// hiddenUtility forwards Value and nothing else: the market cannot tell
// what it computes, so every player stays a class of one.
type hiddenUtility struct{ u market.Utility }

func (h hiddenUtility) Value(alloc []float64) float64 { return h.u.Value(alloc) }

// TestSessionClassesFollowDemand drives a 64-core warm ReBudget-20 session
// through telemetry that moves player 0's demand away from 1.0 and back —
// its class splits, then re-forms — beside a session whose profiled
// utilities have their identities hidden. Every epoch's outcome and
// envy-freeness must agree bit for bit, and a scaled utility's identity
// must carry the demand factor's current value.
func TestSessionClassesFollowDemand(t *testing.T) {
	spec := SessionSpec{
		Workload:  WorkloadSpec{Category: "CPBB", Cores: 64, Seed: 3},
		Mechanism: "rebudget-20",
	}
	bundle, err := buildBundle(spec.Workload)
	if err != nil {
		t.Fatal(err)
	}
	build := func(hide bool) *marketEngine {
		e, err := newMarketEngine(spec, bundle, nil)
		if err != nil {
			t.Fatal(err)
		}
		if hide {
			for i := range e.players {
				su := e.players[i].Utility.(scaledUtility)
				su.inner = hiddenUtility{su.inner}
				e.players[i].Utility = su
			}
		}
		return e
	}
	named, hidden := build(false), build(true)
	if _, ok := hidden.players[0].Utility.(market.Identified); !ok {
		t.Fatal("scaledUtility must implement market.Identified")
	}
	if key, _ := hidden.players[0].Utility.(market.Identified).Identity(); key != nil {
		t.Fatal("a scaled utility over an unnamed one must stay unnamed")
	}

	// Find a core that runs the same application as core 0.
	twin := 0
	for i := 1; i < len(bundle.Apps); i++ {
		if bundle.Apps[i].Fingerprint() == bundle.Apps[0].Fingerprint() {
			twin = i
			break
		}
	}
	if twin == 0 {
		t.Fatal("core 0's application is not repeated; pick another seed")
	}
	identity := func(i int) (any, float64) {
		return named.players[i].Utility.(market.Identified).Identity()
	}

	for epoch, demand := range []float64{0, 0, 1.3, 0, 1.0, 0} {
		if demand > 0 {
			tele := TelemetrySpec{Players: []PlayerTelemetry{{Player: 0, Demand: demand}}}
			if err := named.telemetry(tele); err != nil {
				t.Fatal(err)
			}
			if err := hidden.telemetry(tele); err != nil {
				t.Fatal(err)
			}
		}
		k0, s0 := identity(0)
		k1, s1 := identity(twin)
		if k0 == nil || k0 != k1 || s0 != named.demand[0] || s1 != 1 {
			t.Fatalf("epoch %d: identities (%v, %v) and (%v, %v) with demand %v", epoch, k0, s0, k1, s1, named.demand[0])
		}
		if err := named.step(); err != nil {
			t.Fatal(err)
		}
		if err := hidden.step(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(named.last, hidden.last) {
			t.Fatalf("epoch %d (demand[0]=%v): collapsed outcome differs from the uncollapsed one\ncollapsed:   %+v\nuncollapsed: %+v",
				epoch, named.demand[0], named.last, hidden.last)
		}
		if named.lastEF != hidden.lastEF {
			t.Fatalf("epoch %d: envy-freeness %v, uncollapsed %v", epoch, named.lastEF, hidden.lastEF)
		}
		// While the demands agree the two cores are one class and report
		// one utility; while they differ, player 0 is solved on its own.
		same := named.last.Utilities[0] == named.last.Utilities[twin]
		if want := named.demand[0] == 1; same != want {
			t.Errorf("epoch %d (demand[0]=%v): cores 0 and %d report the same utility: %v, want %v",
				epoch, named.demand[0], twin, same, want)
		}
	}
}
