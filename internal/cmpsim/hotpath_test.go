package cmpsim

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"rebudget/internal/app"
	"rebudget/internal/core"
	"rebudget/internal/numeric"
	"rebudget/internal/trace"
	"rebudget/internal/workload"
)

// TestAloneSingleflight is the regression test for the duplicate-work race:
// before the singleflight, alonePerfIPS released its lock during the
// ~400-epoch reference run, so concurrent chips with the same key each
// computed it. Now the map hands every caller the same per-key entry and a
// sync.Once runs the simulation exactly once.
func TestAloneSingleflight(t *testing.T) {
	sys := NewSystemConfig(4)
	// A unique custom spec (distinct fingerprint) guarantees a cold key no
	// matter which tests ran earlier in the process.
	spec := app.Spec{
		Name: "singleflight-probe", CPIBase: 0.7, API: 0.012, Activity: 0.8,
		Mix: []trace.Component{
			{Kind: trace.Geometric, Weight: 0.9, Param: 3000},
			{Kind: trace.Streaming, Weight: 0.1},
		},
	}
	before := aloneComputes.Load()
	const callers = 16
	perfs := make([]float64, callers)
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			v, err := alonePerfIPS(spec, sys)
			if err != nil {
				t.Errorf("caller %d: %v", k, err)
				return
			}
			perfs[k] = v
		}(k)
	}
	wg.Wait()
	if got := aloneComputes.Load() - before; got != 1 {
		t.Fatalf("%d concurrent callers ran %d reference simulations, want 1", callers, got)
	}
	for k := 1; k < callers; k++ {
		if perfs[k] != perfs[0] {
			t.Fatalf("caller %d got %g, caller 0 got %g", k, perfs[k], perfs[0])
		}
	}
}

// steadyBundle builds a bundle whose generators never allocate: Cyclic and
// Streaming components keep no LRU stack, so every epoch's draws are pure
// counter arithmetic. That isolates the AllocsPerRun assertion to the epoch
// machinery itself.
func steadyBundle(cores int) workload.Bundle {
	b := workload.Bundle{Category: workload.CPBN}
	for i := 0; i < cores; i++ {
		b.Apps = append(b.Apps, app.Spec{
			Name: fmt.Sprintf("steady-%d", i), CPIBase: 0.8, API: 0.01, Activity: 0.7,
			Mix: []trace.Component{
				{Kind: trace.Cyclic, Weight: 0.7, Param: float64(4000 + 512*i)},
				{Kind: trace.Streaming, Weight: 0.3},
			},
		})
	}
	return b
}

// TestRunEpochSteadyStateAllocs pins the zero-allocation property of the
// epoch machinery: once the scratch buffers exist, simulating an epoch of
// stack-free generators must not touch the heap, under either scheduler.
func TestRunEpochSteadyStateAllocs(t *testing.T) {
	cfg := DefaultConfig(4)
	chip, err := NewChip(cfg, steadyBundle(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := chip.Begin(core.EqualShare{}); err != nil {
		t.Fatal(err)
	}
	// A few measured epochs settle missEst (and hence pacing counts).
	for e := 0; e < 3; e++ {
		chip.runEpoch(true)
	}
	if allocs := testing.AllocsPerRun(50, func() { chip.runEpoch(true) }); allocs != 0 {
		t.Fatalf("steady-state runEpoch allocates %.1f objects per epoch, want 0", allocs)
	}
	// The sparse scheduler must be allocation-free too once its heap is
	// warm.
	chip.sched = schedSparse
	chip.runEpoch(true)
	if allocs := testing.AllocsPerRun(50, func() { chip.runEpoch(true) }); allocs != 0 {
		t.Fatalf("sparse-scheduled runEpoch allocates %.1f objects per epoch, want 0", allocs)
	}
}

// TestRunEpochCatalogAllocs holds the catalog bundles — whose geometric
// components do keep LRU stacks — to the bound their stacks allow. A stack
// recycles its chunk backings, so an aged one allocates only while it is
// still acquiring new blocks: well under one backing per epoch after 200
// epochs. The bound of 2 separates that from a stack that leaks backings to
// the GC (37–106 mallocs per epoch before chunks were merged and the spare
// list grew past one slot), and 50 measured epochs per scheduler tell the
// two apart as well as 200 do.
func TestRunEpochCatalogAllocs(t *testing.T) {
	cats := workload.Categories()
	if testing.Short() {
		cats = cats[:2]
	}
	for _, cat := range cats {
		bundle, err := workload.Generate(cat, 8, numeric.NewRand(7))
		if err != nil {
			t.Fatal(err)
		}
		chip, err := NewChip(DefaultConfig(8), bundle)
		if err != nil {
			t.Fatal(err)
		}
		if err := chip.Begin(core.EqualShare{}); err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 200; e++ {
			chip.runEpoch(true)
		}
		for _, run := range []struct {
			name   string
			sched  schedMode
			epochs int
		}{{"dense", schedDense, 50}, {"sparse", schedSparse, 50}} {
			chip.sched = run.sched
			chip.runEpoch(true)
			allocs := testing.AllocsPerRun(run.epochs, func() { chip.runEpoch(true) })
			if allocs > 2 {
				t.Errorf("%s, %s scheduler: aged runEpoch allocates %.0f objects per epoch, want at most 2", cat, run.name, allocs)
			}
		}
	}
}

// skewedBundle pairs memory-hungry apps with near-idle ones so per-core
// paced counts differ wildly — the regime where the sparse scheduler
// actually engages and where an ordering bug would surface as divergent
// cache contention.
func skewedBundle(t *testing.T, cores int) workload.Bundle {
	t.Helper()
	b := workload.Bundle{Category: workload.CPBN}
	for i := 0; i < cores; i++ {
		s := app.Spec{Name: fmt.Sprintf("skew-%d", i), CPIBase: 0.6, Activity: 0.8}
		if i == 0 {
			s.API = 0.03 // hammers the L2
			s.Mix = []trace.Component{{Kind: trace.Geometric, Weight: 1, Param: 6000}}
		} else {
			s.API = 0.00001 // nearly idle
			s.Mix = []trace.Component{{Kind: trace.Streaming, Weight: 1}}
		}
		b.Apps = append(b.Apps, s)
	}
	return b
}

// TestSchedulersBitIdentical forces the dense and sparse interleave
// schedulers on two chips that are otherwise identical and requires every
// per-epoch observable — miss tallies, cache occupancy, miss estimates —
// and the final Result to match exactly. This is the pin that lets the auto
// heuristic switch schedulers freely without perturbing goldens.
func TestSchedulersBitIdentical(t *testing.T) {
	// One hammering core among idlers: the dense scheduler's slot occupancy
	// is bounded below by 1/cores, so real skew needs a wide chip.
	cfg := DefaultConfig(16)
	cfg.Epochs = 6
	cfg.WarmupEpochs = 2
	bundle := skewedBundle(t, 16)

	newChip := func(m schedMode) *Chip {
		chip, err := NewChip(cfg, bundle)
		if err != nil {
			t.Fatal(err)
		}
		chip.sched = m
		if err := chip.Begin(core.EqualShare{}); err != nil {
			t.Fatal(err)
		}
		return chip
	}
	dense, sparse := newChip(schedDense), newChip(schedSparse)
	for e := 0; e < cfg.Epochs; e++ {
		if err := dense.StepEpoch(); err != nil {
			t.Fatal(err)
		}
		if err := sparse.StepEpoch(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cfg.Cores; i++ {
			if dense.scratch.counts[i] != sparse.scratch.counts[i] {
				t.Fatalf("epoch %d core %d: paced counts diverge (%d vs %d)", e, i, dense.scratch.counts[i], sparse.scratch.counts[i])
			}
			if dense.scratch.misses[i] != sparse.scratch.misses[i] {
				t.Fatalf("epoch %d core %d: miss counts diverge (%d vs %d)", e, i, dense.scratch.misses[i], sparse.scratch.misses[i])
			}
			if math.Float64bits(dense.missEst[i]) != math.Float64bits(sparse.missEst[i]) {
				t.Fatalf("epoch %d core %d: missEst diverges (%v vs %v)", e, i, dense.missEst[i], sparse.missEst[i])
			}
		}
		do, so := dense.l2.Occupancy(), sparse.l2.Occupancy()
		for p := range do {
			if do[p] != so[p] {
				t.Fatalf("epoch %d: occupancy[%d] diverges (%d vs %d)", e, p, do[p], so[p])
			}
		}
	}
	dr, err := dense.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := sparse.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := range dr.NormPerf {
		if math.Float64bits(dr.NormPerf[i]) != math.Float64bits(sr.NormPerf[i]) {
			t.Fatalf("NormPerf[%d] diverges: %v vs %v", i, dr.NormPerf[i], sr.NormPerf[i])
		}
	}
	if math.Float64bits(dr.WeightedSpeedup) != math.Float64bits(sr.WeightedSpeedup) {
		t.Fatalf("WeightedSpeedup diverges: %v vs %v", dr.WeightedSpeedup, sr.WeightedSpeedup)
	}
	// Sanity: the skewed profile must actually exercise the sparse path in
	// auto mode, or this test pins nothing interesting.
	s := sparse.scratch
	total, maxCount := 0, 0
	for i := range s.counts {
		total += s.counts[i]
		if s.counts[i] > maxCount {
			maxCount = s.counts[i]
		}
	}
	if total*8 >= maxCount*cfg.Cores {
		t.Fatalf("bundle not skewed enough to engage the sparse scheduler (total %d, max %d)", total, maxCount)
	}
}
