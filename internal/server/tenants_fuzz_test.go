package server

import (
	"math"
	"testing"

	"rebudget/internal/tenant"
)

// FuzzParseTenants drives the -tenants grammar with arbitrary input. Any
// argument it accepts must build a tree whose every Granted and Deserved
// budget stays finite and non-negative across a Rebalance, whatever the
// leaves demand.
func FuzzParseTenants(f *testing.F) {
	f.Add("a:1:NaN", 1.0, 0.0)
	f.Add("a:Inf", 2.0, 5.0)
	f.Add("acme/prod:3:2:0.5,acme/dev:1,free:1:0.5", 3.0, 100.0)
	f.Add("a:1e308,b:1e308", 1.0, 1.0) // sibling shares whose sum overflows
	f.Fuzz(func(t *testing.T, arg string, even, odd float64) {
		specs, err := ParseTenants(arg)
		if err != nil {
			return
		}
		tree, err := tenant.New(specs, tenant.Config{Capacity: 8})
		if err != nil {
			t.Fatalf("ParseTenants accepted %q, tenant.New refused it: %v", arg, err)
		}
		for i, st := range tree.StatusAll() {
			path := st.Path
			d := even
			if i%2 == 1 {
				d = odd
			}
			_ = tree.SetDemand(path, d) // interior nodes refuse demand
		}
		tree.Rebalance()
		for _, st := range tree.StatusAll() {
			if !(st.Granted >= 0) || math.IsInf(st.Granted, 0) || !(st.Deserved >= 0) || math.IsInf(st.Deserved, 0) {
				t.Fatalf("%q, demands %g/%g: tenant %s granted %g, deserved %g",
					arg, even, odd, st.Path, st.Granted, st.Deserved)
			}
		}
	})
}
