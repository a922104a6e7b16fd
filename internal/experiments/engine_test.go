package experiments

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"rebudget/internal/cmpsim"
	"rebudget/internal/core"
	"rebudget/internal/market"
)

// engineTestConfig is a reduced detailed-simulation config small enough to
// run the same experiment twice in a test, but with enough epochs that the
// market actually reallocates and any cross-cell interference would show.
func engineTestConfig(cores int) cmpsim.Config {
	cfg := cmpsim.DefaultConfig(cores)
	cfg.Epochs = 4
	cfg.WarmupEpochs = 2
	cfg.MaxAccessesPerCoreEpoch = 2000
	return cfg
}

// floatsBitEqual compares float slices by bit pattern: stricter than == for
// normal values, and well-defined for the NaN entries BundleResult uses to
// mark non-market mechanisms (NaN != NaN would make reflect.DeepEqual
// reject even two identical serial sweeps).
func floatsBitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func bundlesBitEqual(t *testing.T, a, b BundleResult) bool {
	t.Helper()
	return reflect.DeepEqual(a.Bundle, b.Bundle) &&
		floatsBitEqual(a.Efficiency, b.Efficiency) &&
		floatsBitEqual(a.EnvyFreeness, b.EnvyFreeness) &&
		floatsBitEqual(a.MUR, b.MUR) &&
		floatsBitEqual(a.MBR, b.MBR) &&
		floatsBitEqual(a.EFBound, b.EFBound) &&
		reflect.DeepEqual(a.Iterations, b.Iterations) &&
		reflect.DeepEqual(a.Runs, b.Runs) &&
		reflect.DeepEqual(a.Converged, b.Converged) &&
		math.Float64bits(a.MaxEffEF) == math.Float64bits(b.MaxEffEF)
}

func fig5BitEqual(t *testing.T, a, b *Fig5Result) {
	t.Helper()
	if a.Cores != b.Cores || !reflect.DeepEqual(a.Mechanisms, b.Mechanisms) {
		t.Fatalf("result shape differs: %v vs %v", a.Mechanisms, b.Mechanisms)
	}
	if len(a.Bundles) != len(b.Bundles) {
		t.Fatalf("bundle count differs: %d vs %d", len(a.Bundles), len(b.Bundles))
	}
	for bi := range a.Bundles {
		x, y := a.Bundles[bi], b.Bundles[bi]
		if x.Category != y.Category ||
			!floatsBitEqual(x.Efficiency, y.Efficiency) ||
			!floatsBitEqual(x.EnvyFreeness, y.EnvyFreeness) ||
			!floatsBitEqual(x.MeanIterations, y.MeanIterations) ||
			math.Float64bits(x.MaxEffEF) != math.Float64bits(y.MaxEffEF) {
			t.Errorf("bundle %d (%s): parallel fig5 diverged from serial", bi, x.Category)
		}
	}
}

// TestEngineFig5Determinism runs the detailed-simulation comparison once
// inline and once across four workers. Every cell writes a disjoint slot and
// the alone-performance cache is singleflighted, so the two results must be
// bit-identical — not approximately equal. Run under -race this also pins
// that the fan-out shares no unsynchronised state.
func TestEngineFig5Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed simulation in -short mode")
	}
	serial, err := Engine{Workers: 1}.RunFig5(engineTestConfig(4), 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Engine{Workers: 4}.RunFig5(engineTestConfig(4), 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	fig5BitEqual(t, serial, parallel)
}

// TestEngineSweepDeterminism pins the analytic sweep the same way: the
// worker-pool fan-out over bundles must assemble a result byte-identical to
// the serial loop.
func TestEngineSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	serial, err := Engine{Workers: 1}.RunSweep(8, 1, 13, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Engine{Workers: 4}.RunSweep(8, 1, 13, nil)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Cores != parallel.Cores || !reflect.DeepEqual(serial.Mechanisms, parallel.Mechanisms) {
		t.Fatalf("sweep shape differs: %v vs %v", serial.Mechanisms, parallel.Mechanisms)
	}
	if len(serial.Bundles) != len(parallel.Bundles) {
		t.Fatalf("bundle count differs: %d vs %d", len(serial.Bundles), len(parallel.Bundles))
	}
	for bi := range serial.Bundles {
		if !bundlesBitEqual(t, serial.Bundles[bi], parallel.Bundles[bi]) {
			t.Errorf("bundle %d (%s): parallel sweep diverged from serial",
				bi, serial.Bundles[bi].Bundle.Category)
		}
	}
}

// TestSweepSolvesColdOncePerBundle pins the cold equal-budget memo's
// saving in a sweep: ReBudget-20's and ReBudget-40's first runs read the
// equilibrium each bundle's EqualBudget stored instead of searching it, so
// the sweep runs at most one cold equal-budget search per bundle (exactly
// one in a fresh process; an earlier run of this test may have left entries
// EqualBudget hits). Serially that holds for every bundle. In parallel, a
// worker starved of CPU while the others store 2 × GOMAXPROCS entries loses
// its own, and its ReBudgets search again, so most, not all, bundles must
// hit there.
func TestSweepSolvesColdOncePerBundle(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core sweep in -short mode")
	}
	for _, e := range []Engine{{Workers: 1}, {}} {
		mechs := DefaultMechanisms()
		searches := make([]atomic.Int64, len(mechs))
		for i := range mechs {
			mechs[i] = core.WithMarketConfig(mechs[i], func(mc market.Config) market.Config {
				mc.Observer = func(int, int, time.Duration) { searches[i].Add(1) }
				return mc
			})
		}
		s, err := e.RunSweep(64, 1, 17, mechs)
		if err != nil {
			t.Fatal(err)
		}
		bundles := int64(len(s.Bundles))
		if got := searches[s.mechIndex("EqualBudget")].Load(); got > bundles {
			t.Errorf("workers %d: EqualBudget searched %d times over %d bundles", e.Workers, got, bundles)
		}
		for _, name := range []string{"ReBudget-20", "ReBudget-40"} {
			i, warm := s.mechIndex(name), int64(0)
			for _, b := range s.Bundles {
				warm += int64(b.Runs[i] - 1)
			}
			misses := searches[i].Load() - warm
			if e.Workers == 1 && misses != 0 || 2*misses > bundles {
				t.Errorf("workers %d: %s searched its cold run on %d of %d bundles", e.Workers, name, misses, bundles)
			}
		}
	}
}

func resilienceRowBitEqual(a, b ResilienceRow) bool {
	return math.Float64bits(a.FaultRate) == math.Float64bits(b.FaultRate) &&
		math.Float64bits(a.WeightedSpeedup) == math.Float64bits(b.WeightedSpeedup) &&
		math.Float64bits(a.Retained) == math.Float64bits(b.Retained) &&
		math.Float64bits(a.EnvyFreeness) == math.Float64bits(b.EnvyFreeness) &&
		math.Float64bits(a.MUR) == math.Float64bits(b.MUR) &&
		math.Float64bits(a.MBR) == math.Float64bits(b.MBR) &&
		math.Float64bits(a.MinMBR) == math.Float64bits(b.MinMBR) &&
		a.FloorOK == b.FloorOK &&
		a.Health == b.Health &&
		a.Faults == b.Faults
}

// TestEngineResilienceDeterminism pins the fault sweep: the baseline and the
// fault-rate cells fan out concurrently, yet normalising Retained after the
// barrier must reproduce the old baseline-first serial rows exactly.
func TestEngineResilienceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed simulation in -short mode")
	}
	rates := []float64{0.05, 0.20}
	serial, err := Engine{Workers: 1}.RunResilience(engineTestConfig(4), 5, rates)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Engine{Workers: 3}.RunResilience(engineTestConfig(4), 5, rates)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Cores != parallel.Cores || serial.Mechanism != parallel.Mechanism ||
		math.Float64bits(serial.MBRFloor) != math.Float64bits(parallel.MBRFloor) ||
		math.Float64bits(serial.Baseline) != math.Float64bits(parallel.Baseline) ||
		math.Float64bits(serial.BaselineEF) != math.Float64bits(parallel.BaselineEF) {
		t.Fatalf("resilience header differs: %+v vs %+v", serial, parallel)
	}
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("row count differs: %d vs %d", len(serial.Rows), len(parallel.Rows))
	}
	for i := range serial.Rows {
		if !resilienceRowBitEqual(serial.Rows[i], parallel.Rows[i]) {
			t.Errorf("rate %g: parallel resilience diverged from serial", serial.Rows[i].FaultRate)
		}
	}
}
