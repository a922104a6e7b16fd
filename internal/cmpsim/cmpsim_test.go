package cmpsim

import (
	"math"
	"testing"

	"rebudget/internal/app"
	"rebudget/internal/core"
	"rebudget/internal/numeric"
	"rebudget/internal/power"
	"rebudget/internal/workload"
)

func smallBundle(t *testing.T, cores int) workload.Bundle {
	t.Helper()
	b, err := workload.Generate(workload.CPBN, cores, numeric.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewChipValidation(t *testing.T) {
	b := smallBundle(t, 4)
	bad := DefaultConfig(4)
	bad.Epochs = 0
	if _, err := NewChip(bad, b); err == nil {
		t.Error("zero epochs accepted")
	}
	cfg := DefaultConfig(8)
	if _, err := NewChip(cfg, b); err == nil {
		t.Error("bundle/core mismatch accepted")
	}
	cfg = DefaultConfig(4)
	cfg.MaxAccessesPerCoreEpoch = 10
	if _, err := NewChip(cfg, b); err == nil {
		t.Error("tiny access budget accepted")
	}
	cfg = DefaultConfig(4)
	cfg.ReallocEvery = 0
	if _, err := NewChip(cfg, b); err == nil {
		t.Error("zero realloc interval accepted")
	}
	if _, err := NewChip(DefaultConfig(4), b); err != nil {
		t.Errorf("valid chip rejected: %v", err)
	}
}

func TestSystemConfigTable1(t *testing.T) {
	c8 := NewSystemConfig(8)
	if c8.PowerBudgetW != 80 || c8.L2CapacityBytes != 4<<20 || c8.L2Ways != 16 || c8.MemoryChannels != 2 {
		t.Errorf("8-core config does not match Table 1: %+v", c8)
	}
	c64 := NewSystemConfig(64)
	if c64.PowerBudgetW != 640 || c64.L2CapacityBytes != 32<<20 || c64.L2Ways != 32 || c64.MemoryChannels != 16 {
		t.Errorf("64-core config does not match Table 1: %+v", c64)
	}
	if c8.FreqMinGHz != 0.8 || c8.FreqMaxGHz != 4.0 || c8.VoltMin != 0.8 || c8.VoltMax != 1.2 {
		t.Errorf("DVFS range wrong: %+v", c8)
	}
	if c8.RegionBytes != 128<<10 || c8.UMONSampleRate != 32 || c8.UMONMaxStackRegion != 16 {
		t.Errorf("monitoring config wrong: %+v", c8)
	}
}

func TestRunEqualShare(t *testing.T) {
	chip, err := NewChip(DefaultConfig(4), smallBundle(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := chip.Run(core.EqualShare{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mechanism != "EqualShare" {
		t.Errorf("mechanism = %s", res.Mechanism)
	}
	if len(res.NormPerf) != 4 {
		t.Fatalf("NormPerf size %d", len(res.NormPerf))
	}
	sum := 0.0
	for i, p := range res.NormPerf {
		if p <= 0 || p > 1.3 {
			t.Errorf("core %d normalised perf %g outside (0, 1.3]", i, p)
		}
		sum += p
	}
	if math.Abs(sum-res.WeightedSpeedup) > 1e-9 {
		t.Error("WeightedSpeedup != Σ NormPerf")
	}
	if res.WeightedSpeedup > 4 {
		t.Errorf("weighted speedup %g exceeds core count", res.WeightedSpeedup)
	}
	if res.MaxTempC <= 45 || res.MaxTempC >= 120 {
		t.Errorf("max temperature %g implausible", res.MaxTempC)
	}
	if res.AvgPowerW <= 0 || res.AvgPowerW > 10.5 {
		t.Errorf("average core power %g implausible", res.AvgPowerW)
	}
}

func TestRunMarketMechanism(t *testing.T) {
	chip, err := NewChip(DefaultConfig(4), smallBundle(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := chip.Run(core.EqualBudget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalOutcome == nil {
		t.Fatal("market run should record an outcome")
	}
	if res.MeanIterations < 1 {
		t.Errorf("mean iterations %g, want >= 1", res.MeanIterations)
	}
	if res.EnvyFreeness < 0 || res.EnvyFreeness > 1 {
		t.Errorf("EF = %g outside [0,1]", res.EnvyFreeness)
	}
	if res.FinalOutcome.MBR != 1 {
		t.Errorf("EqualBudget MBR = %g", res.FinalOutcome.MBR)
	}
	// The market should put cache where it pays: the C-class app ends with
	// at least as many regions as the P-class app.
	var cRegions, pRegions float64
	for i, a := range chip.bundle.Apps {
		switch a.Class.String() {
		case "C":
			cRegions = chip.regions[i]
		case "P":
			pRegions = chip.regions[i]
		}
	}
	if cRegions < pRegions {
		t.Errorf("C app got %g regions, P app %g — market misdirected cache", cRegions, pRegions)
	}
}

func TestRunReBudgetImprovesOnEqualBudget(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Seed = 3
	b, err := workload.Figure3Bundle()
	if err != nil {
		t.Fatal(err)
	}
	run := func(a core.Allocator) *Result {
		chip, err := NewChip(cfg, b)
		if err != nil {
			t.Fatal(err)
		}
		res, err := chip.Run(a)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	eq := run(core.EqualBudget{})
	rb := run(core.ReBudget{Step: 40})
	// §6.3: ReBudget trades fairness for efficiency relative to EqualBudget.
	if rb.WeightedSpeedup < eq.WeightedSpeedup-0.15 {
		t.Errorf("ReBudget-40 speedup %g well below EqualBudget %g",
			rb.WeightedSpeedup, eq.WeightedSpeedup)
	}
	if rb.FinalOutcome.MBR >= 1 {
		t.Error("ReBudget never cut a budget")
	}
}

func TestRunNilAllocator(t *testing.T) {
	chip, _ := NewChip(DefaultConfig(4), smallBundle(t, 4))
	if _, err := chip.Run(nil); err == nil {
		t.Error("nil allocator accepted")
	}
}

func TestAlonePerfCachedAndPositive(t *testing.T) {
	sys := NewSystemConfig(4)
	mcfSpec, _ := app.Lookup("mcf")
	sixSpec, _ := app.Lookup("sixtrack")
	a, err := alonePerfIPS(mcfSpec, sys)
	if err != nil {
		t.Fatal(err)
	}
	if a <= 0 {
		t.Fatalf("alone perf %g", a)
	}
	b, _ := alonePerfIPS(mcfSpec, sys)
	if a != b {
		t.Error("alone perf should be cached/deterministic")
	}
	// A P-class app at 4 GHz should retire far more IPS than mcf.
	p, _ := alonePerfIPS(sixSpec, sys)
	if p < 2*a {
		t.Errorf("sixtrack alone %g not clearly above mcf %g", p, a)
	}
	// The alone run owns the full L2, so its miss ratio is near the
	// model's best case: perf must be within the analytic envelope.
	spec, _ := app.Lookup("mcf")
	m := app.NewModel(spec)
	best := m.PerfIPS(0, power.MaxFreqGHz)
	if a > best {
		t.Errorf("alone perf %g exceeds zero-miss bound %g", a, best)
	}
}

func TestShadowRouting(t *testing.T) {
	chip, _ := NewChip(DefaultConfig(4), smallBundle(t, 4))
	// Force a 50/50 split on core 2 and check the hash routes both ways.
	chip.rhoThresh[2] = rhoHashBuckets / 2
	lo, hi := 0, 0
	for a := uint64(0); a < 4096; a++ {
		if chip.shadowFor(2, a*64) == 4 {
			lo++
		} else {
			hi++
		}
	}
	frac := float64(lo) / 4096
	if math.Abs(frac-0.5) > 0.06 {
		t.Errorf("hash split %g, want ≈0.5", frac)
	}
	// Degenerate split routes everything to one shadow.
	chip.rhoThresh[2] = rhoHashBuckets
	for a := uint64(0); a < 256; a++ {
		if chip.shadowFor(2, a*64) != 4 {
			t.Fatal("rho=1 must route everything to the Lo shadow")
		}
	}
}

func TestChipIsSingleUse(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Epochs = 2
	cfg.WarmupEpochs = 1
	chip, err := NewChip(cfg, smallBundle(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chip.Run(core.EqualShare{}); err != nil {
		t.Fatal(err)
	}
	if _, err := chip.Run(core.EqualShare{}); err == nil {
		t.Error("second run on the same chip accepted")
	}
}

func TestPowerGovernorThrottles(t *testing.T) {
	chip, err := NewChip(DefaultConfig(4), smallBundle(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Give every core its full budget share and artificially overheat the
	// dies: leakage then pushes the measured draw above the 40 W TDP and
	// the governor must pull frequencies back.
	for i := range chip.wattsBudg {
		chip.wattsBudg[i] = 10
		chip.freq[i] = power.MaxFreqGHz
		for chip.therm[i].Temp() < 110 {
			chip.therm[i].Update(50, 0.05)
		}
	}
	if !chip.enforcePowerBudget() {
		t.Fatal("governor did not throttle an overheated chip")
	}
	total := 0.0
	for i := range chip.models {
		total += chip.models[i].Power.Total(chip.freq[i], chip.models[i].Spec.Activity, chip.therm[i].Temp())
	}
	if total > chip.sys.PowerBudgetW*1.02 {
		t.Errorf("post-throttle draw %.1f W still above %.0f W budget", total, chip.sys.PowerBudgetW)
	}
	// A cool, within-budget chip must not be throttled.
	cool, _ := NewChip(DefaultConfig(4), smallBundle(t, 4))
	if cool.enforcePowerBudget() {
		t.Error("governor throttled a within-budget chip")
	}
}

func TestBandwidthMarketMode(t *testing.T) {
	// A bundle with streamers (N) and compute apps (P): under the
	// three-resource market the streamers must end up holding more
	// bandwidth than the compute-bound apps.
	var b workload.Bundle
	b.Category = "bw-test"
	for _, n := range []string{"lucas", "wupwise", "sixtrack", "hmmer"} {
		spec, err := app.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		b.Apps = append(b.Apps, spec)
	}
	cfg := DefaultConfig(4)
	cfg.BandwidthMarket = true
	cfg.Epochs = 8
	chip, err := NewChip(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chip.Run(core.EqualBudget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.WeightedSpeedup <= 0 || res.WeightedSpeedup > 4.2 {
		t.Errorf("speedup %g implausible", res.WeightedSpeedup)
	}
	if got := len(chip.marketCapacity()); got != 3 {
		t.Fatalf("market capacity dims = %d, want 3", got)
	}
	streamBW := (chip.bwAlloc[0] + chip.bwAlloc[1]) / 2
	computeBW := (chip.bwAlloc[2] + chip.bwAlloc[3]) / 2
	if streamBW <= computeBW {
		t.Errorf("streamers hold %g GB/s vs compute %g — bandwidth misdirected",
			streamBW, computeBW)
	}
	// The final outcome has three-resource allocations.
	if len(res.FinalOutcome.Allocations[0]) != 3 {
		t.Errorf("allocation dims = %d", len(res.FinalOutcome.Allocations[0]))
	}
}

func TestChipStateAccessors(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Epochs = 2
	cfg.WarmupEpochs = 1
	chip, err := NewChip(cfg, smallBundle(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chip.Run(core.EqualBudget{}); err != nil {
		t.Fatal(err)
	}
	regions := chip.Regions()
	freqs := chip.Frequencies()
	watts := chip.PowerBudgets()
	temps := make([]float64, len(chip.therm))
	for i, th := range chip.therm {
		temps[i] = th.Temp()
	}
	if len(regions) != 4 || len(freqs) != 4 || len(watts) != 4 || len(temps) != 4 {
		t.Fatal("accessor lengths wrong")
	}
	for i := 0; i < 4; i++ {
		if regions[i] < 1 {
			t.Errorf("core %d below the one-region floor: %g", i, regions[i])
		}
		if freqs[i] < power.MinFreqGHz || freqs[i] > power.MaxFreqGHz {
			t.Errorf("core %d frequency %g outside the ladder", i, freqs[i])
		}
		if watts[i] <= 0 {
			t.Errorf("core %d power budget %g", i, watts[i])
		}
		if temps[i] < 45 || temps[i] > 120 {
			t.Errorf("core %d temperature %g implausible", i, temps[i])
		}
	}
	// Accessors return copies, not views.
	regions[0] = -1
	if chip.Regions()[0] == -1 {
		t.Error("Regions returned a live view")
	}
}
