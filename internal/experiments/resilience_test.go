package experiments

import (
	"strings"
	"testing"

	"rebudget/internal/cmpsim"
	"rebudget/internal/core"
	"rebudget/internal/market"
)

// TestFloorWatchForwardsDecorations: floorWatch meets core.Wrapper, so a
// market-config transform (the chip's solver-stall hook) and warm bids both
// reach the mechanism it wraps, in place.
func TestFloorWatchForwardsDecorations(t *testing.T) {
	watch := newFloorWatch(core.ReBudget{Step: 20})
	var a core.Allocator = watch
	a = core.WithMarketConfig(a, func(mc market.Config) market.Config {
		mc.MinShiftFraction = 0.07
		return mc
	})
	a = core.WithWarmBids(a, [][]float64{{1, 2}, {3, 4}})
	if a != core.Allocator(watch) {
		t.Fatal("decorating floorWatch should return the same wrapper")
	}
	mech := watch.inner.(core.ReBudget)
	if mech.Market.MinShiftFraction != 0.07 {
		t.Errorf("market config did not reach the mechanism: MinShiftFraction = %g", mech.Market.MinShiftFraction)
	}
	if len(mech.WarmBids) != 2 {
		t.Errorf("warm bids did not reach the mechanism: %v", mech.WarmBids)
	}
}

func TestRunResilience(t *testing.T) {
	cfg := cmpsim.DefaultConfig(4)
	cfg.WarmupEpochs = 4
	cfg.Epochs = 8
	res, err := Engine{}.RunResilience(cfg, 1, []float64{0.10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline <= 0 {
		t.Fatalf("fault-free baseline speedup %g", res.Baseline)
	}
	if res.MBRFloor <= 0 || res.MBRFloor > 1 {
		t.Fatalf("MBR floor %g", res.MBRFloor)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	if row.FaultRate != 0.10 {
		t.Errorf("FaultRate = %g", row.FaultRate)
	}
	// The acceptance bar: a 10% fault rate retains at least 80% of the
	// fault-free weighted speedup.
	if row.Retained < 0.8 {
		t.Errorf("retained efficiency %.3f below 0.8 at 10%% faults", row.Retained)
	}
	if !row.FloorOK {
		t.Errorf("MBR floor violated: min %.3f < %.3f", row.MinMBR, res.MBRFloor)
	}
	total := row.Faults.CurveFaults + row.Faults.UtilityFaults + row.Faults.SolverStalls
	if total == 0 {
		t.Error("sweep row reports zero injected faults")
	}

	var sb strings.Builder
	RenderResilience(&sb, res)
	out := sb.String()
	for _, want := range []string{"Resilience", "fault-free baseline", "retained", "minMBR", "0.10"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered sweep missing %q:\n%s", want, out)
		}
	}
}
