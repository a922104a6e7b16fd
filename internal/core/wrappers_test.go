package core

import (
	"testing"

	"rebudget/internal/market"
)

// shimWrapper is the minimal telemetry-style wrapper: it forwards Allocate
// and meets the one Wrapper obligation.
type shimWrapper struct{ inner Allocator }

func (s *shimWrapper) Name() string { return s.inner.Name() }
func (s *shimWrapper) Allocate(capacity []float64, players []PlayerSpec) (*Outcome, error) {
	return s.inner.Allocate(capacity, players)
}
func (s *shimWrapper) Rewrap(f func(Allocator) Allocator) Allocator {
	s.inner = f(s.inner)
	return s
}

// TestDecorationsReachMechanismThroughWrappers: a market-config transform and
// warm bids both land on the equilibrium-running mechanism whether it sits
// behind Resilient, behind a plain wrapper, or behind both — and the handle
// that comes back is the outermost wrapper itself, decorated in place.
func TestDecorationsReachMechanismThroughWrappers(t *testing.T) {
	bids := [][]float64{{1, 2}, {3, 4}}
	setShift := func(mc market.Config) market.Config { mc.MinShiftFraction = 0.07; return mc }

	shim := &shimWrapper{inner: ReBudget{Step: 20}}
	resil := NewResilient(Balanced{}, ResilientConfig{})
	innerShim := &shimWrapper{inner: EqualBudget{}}
	nested := NewResilient(innerShim, ResilientConfig{})

	cases := []struct {
		name  string
		outer Allocator
		mech  func() (market.Config, [][]float64)
	}{
		{"shim", shim, func() (market.Config, [][]float64) {
			m := shim.inner.(ReBudget)
			return m.Market, m.WarmBids
		}},
		{"resilient", resil, func() (market.Config, [][]float64) {
			m := resil.inner.(Balanced)
			return m.Market, m.WarmBids
		}},
		{"resilient over shim", nested, func() (market.Config, [][]float64) {
			m := innerShim.inner.(EqualBudget)
			return m.Market, m.WarmBids
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := WithWarmBids(WithMarketConfig(tc.outer, setShift), bids)
			if got != tc.outer {
				t.Fatal("decorating a wrapper should return the same wrapper")
			}
			cfg, warm := tc.mech()
			if cfg.MinShiftFraction != 0.07 {
				t.Errorf("market config did not reach the mechanism: MinShiftFraction = %g", cfg.MinShiftFraction)
			}
			if len(warm) != len(bids) {
				t.Errorf("warm bids did not reach the mechanism: %v", warm)
			}
		})
	}
}
