package cmpsim

import (
	"fmt"
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
// stack-free generators must not touch the heap.
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
}

// TestRunEpochCatalogAllocs holds the catalog bundles — whose geometric
// components do keep LRU stacks — to the bound their stacks allow. A stack
// recycles its chunk backings, so an aged one allocates only while it is
// still acquiring new blocks: well under one backing per epoch after 200
// epochs. The bound of 2 separates that from a stack that leaks backings to
// the GC (37–106 mallocs per epoch before chunks were merged and the spare
// list grew past one slot), and 50 measured epochs tell the two apart as
// well as 200 do.
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
		if allocs := testing.AllocsPerRun(50, func() { chip.runEpoch(true) }); allocs > 2 {
			t.Errorf("%s: aged runEpoch allocates %.0f objects per epoch, want at most 2", cat, allocs)
		}
	}
}
