package cmpsim

import (
	"fmt"
	"time"

	"rebudget/internal/app"
	"rebudget/internal/cache"
	"rebudget/internal/core"
	"rebudget/internal/dram"
	"rebudget/internal/fault"
	"rebudget/internal/market"
	"rebudget/internal/metrics"
	"rebudget/internal/numeric"
	"rebudget/internal/thermal"
	"rebudget/internal/trace"
	"rebudget/internal/workload"
)

// interconnectNs is the fixed on-chip portion of an L2-miss round trip; the
// DRAM bank model supplies the rest, so at a 50 % row-hit rate the
// uncontended total is app.DefaultMemLatNs.
const interconnectNs = app.DefaultMemLatNs - (0.5*dram.RowHitNs + 0.5*dram.RowMissNs)

// rhoHashBuckets quantises the Talus stream-split fraction.
const rhoHashBuckets = 1024

// Chip is one simulated CMP running one bundle.
type Chip struct {
	cfg    Config
	sys    SystemConfig
	bundle workload.Bundle
	// epochS is epochSeconds, held per chip so a test can shorten an
	// epoch until no core issues an access.
	epochS float64

	models  []*app.Model
	gens    []trace.Stream
	l2      *cache.PartitionedCache
	umons   []*cache.UMON
	therm   []*thermal.Node
	bankSim *dram.BankSim

	// Per-core allocation state.
	freq      []float64 // GHz
	wattsBudg []float64 // total per-core power budget (floor + market)
	regions   []float64 // total per-core region target (floor + market)
	rhoThresh []uint64  // talus stream split threshold in hash buckets
	floorW    []float64
	bwAlloc   []float64 // GB/s per core (BandwidthMarket mode; floor + market)

	// Per-core measurement state.
	missEst      []float64 // last epoch's measured L2 miss ratio
	instructions []float64 // retired, in instructions
	elapsed      float64   // seconds of measured virtual time
	lastOutcome  *core.Outcome
	iterSum      int
	reallocs     int
	throttles    int
	ran          bool

	// Incremental-stepping state (see step.go): the allocator installed by
	// Begin, the count of measured epochs, and the measured epoch at which
	// each core's current application arrived (0 unless switched in).
	alloc   core.Allocator
	stepped int
	arrival []int

	// Fault-injection and degraded-mode state. The injector is nil when
	// Config.Faults is disabled, so clean runs take no fault branch.
	injector     *fault.Injector
	health       metrics.Health
	consecFails  int
	cooldownLeft int

	// eqProfile accumulates per-equilibrium cost counters across the run
	// via market.Config.Observer.
	eqProfile metrics.EquilibriumProfile

	// Epoch hot-path state (see sched.go): reusable pacing/interleave
	// scratch so the epoch loop allocates nothing of its own.
	scratch epochScratch
}

// marketConfig is the transform Begin threads through
// core.WithMarketConfig: it hangs the injector's solver-stall hook on the
// market's round hook and installs the chip's equilibrium profiler.
// An observer already installed on the allocator (a server-wide profile,
// say) is chained, not displaced, so outer telemetry keeps counting.
func (c *Chip) marketConfig(mc market.Config) market.Config {
	if c.injector != nil {
		if hook := c.injector.SolverHook(); hook != nil {
			mc.RoundHook = hook
		}
	}
	if prev := mc.Observer; prev != nil {
		mc.Observer = func(rounds, bidSteps int, wall time.Duration) {
			prev(rounds, bidSteps, wall)
			c.eqProfile.Observe(rounds, bidSteps, wall)
		}
	} else {
		mc.Observer = c.eqProfile.Observe
	}
	return mc
}

// NewChip builds a chip for the bundle.
func NewChip(cfg Config, b workload.Bundle) (*Chip, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(b.Apps) != cfg.Cores {
		return nil, fmt.Errorf("cmpsim: bundle has %d apps for %d cores", len(b.Apps), cfg.Cores)
	}
	sys := NewSystemConfig(cfg.Cores)
	l2, err := cache.NewPartitioned(cache.Config{
		CapacityBytes: sys.L2CapacityBytes,
		Ways:          sys.L2Ways,
		Partitions:    2 * cfg.Cores, // two Talus shadow partitions per core
	})
	if err != nil {
		return nil, err
	}
	bankSim, err := dram.NewBankSim(sys.MemoryChannels)
	if err != nil {
		return nil, err
	}
	c := &Chip{
		cfg: cfg, sys: sys, bundle: b, epochS: epochSeconds,
		l2: l2, bankSim: bankSim,
		freq:         make([]float64, cfg.Cores),
		wattsBudg:    make([]float64, cfg.Cores),
		regions:      make([]float64, cfg.Cores),
		rhoThresh:    make([]uint64, cfg.Cores),
		floorW:       make([]float64, cfg.Cores),
		bwAlloc:      make([]float64, cfg.Cores),
		missEst:      make([]float64, cfg.Cores),
		instructions: make([]float64, cfg.Cores),
		arrival:      make([]int, cfg.Cores),
		injector:     fault.New(cfg.Faults),
	}
	rng := numeric.NewRand(cfg.Seed)
	for i, spec := range b.Apps {
		m := app.NewModel(spec)
		c.models = append(c.models, m)
		g, err := m.NewTrace(rng.Uint64(), uint8(i))
		if err != nil {
			return nil, err
		}
		c.gens = append(c.gens, g)
		u, err := cache.NewUMON(sys.UMONMaxStackRegion, 5) // sample rate 32
		if err != nil {
			return nil, err
		}
		c.umons = append(c.umons, u)
		c.therm = append(c.therm, thermal.NewNode())
		c.floorW[i] = m.FloorPowerW()
		c.missEst[i] = 1 // pessimistic cold start
	}
	c.applyEqualShare()
	return c, nil
}

// applyEqualShare installs the EqualShare allocation used during warmup.
func (c *Chip) applyEqualShare() {
	n := c.cfg.Cores
	totalRegions := float64(c.sys.L2CapacityBytes / c.sys.RegionBytes)
	marketW := c.sys.PowerBudgetW - numeric.Sum(c.floorW)
	deltas := make([][]float64, n)
	for i := 0; i < n; i++ {
		deltas[i] = []float64{totalRegions/float64(n) - 1, marketW / float64(n)}
		if c.cfg.BandwidthMarket {
			deltas[i] = append(deltas[i], c.marketBandwidthGBs()/float64(n))
		}
	}
	c.applyAllocation(deltas)
}

// marketBandwidthGBs is the allocatable bandwidth beyond per-core floors.
func (c *Chip) marketBandwidthGBs() float64 {
	total := dram.ChannelBandwidthGBs * float64(c.sys.MemoryChannels)
	return total - app.FloorBandwidthGBs*float64(c.cfg.Cores)
}

// applyAllocation converts market allocations (Δregions, Δwatts per core)
// into hardware state: DVFS levels, Talus shadow splits and Futility
// Scaling line targets.
func (c *Chip) applyAllocation(deltas [][]float64) {
	n := c.cfg.Cores
	targets := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		dRegions, dWatts := 0.0, 0.0
		if len(deltas[i]) > 0 && deltas[i][0] > 0 {
			dRegions = deltas[i][0]
		}
		if len(deltas[i]) > 1 && deltas[i][1] > 0 {
			dWatts = deltas[i][1]
		}
		c.regions[i] = 1 + dRegions
		c.wattsBudg[i] = c.floorW[i] + dWatts
		c.freq[i] = c.models[i].FreqAtTotalPowerGHz(c.wattsBudg[i], c.therm[i].Temp())
		if c.cfg.BandwidthMarket {
			c.bwAlloc[i] = app.FloorBandwidthGBs
			if len(deltas[i]) > 2 && deltas[i][2] > 0 {
				c.bwAlloc[i] += deltas[i][2]
			}
		}

		// Talus split from the latest measured miss curve.
		tal, err := cache.NewTalus(c.umons[i].Curve())
		if err != nil {
			// Degenerate curve: single partition at the raw target.
			targets[2*i] = c.regions[i] * cache.LinesPerRegion
			c.rhoThresh[i] = rhoHashBuckets
			continue
		}
		split := tal.Split(c.regions[i])
		targets[2*i] = split.LoLines
		targets[2*i+1] = split.HiLines
		c.rhoThresh[i] = uint64(split.Rho * rhoHashBuckets)
	}
	// Clamp aggregate targets into the cache if rounding overshoots.
	total := numeric.Sum(targets)
	if limit := float64(c.l2.TotalLines()); total > limit {
		scale := limit / total
		for i := range targets {
			targets[i] *= scale
		}
	}
	if err := c.l2.SetTargets(targets); err != nil {
		// Targets are constructed in range; a failure here is a bug.
		panic(fmt.Sprintf("cmpsim: invalid partition targets: %v", err))
	}
}

// shadowFor routes one line address to the core's Lo or Hi shadow
// partition, Talus-style (uniform address hash against ρ).
func (c *Chip) shadowFor(coreID int, addr uint64) int {
	h := (addr / cache.LineSize) * 0x9e3779b97f4a7c15
	if h>>(64-10) < c.rhoThresh[coreID] {
		return 2 * coreID
	}
	return 2*coreID + 1
}

// perfIPS evaluates a core's achieved throughput given its measured miss
// ratio, current frequency and the live memory latency.
func (c *Chip) perfIPS(coreID int, missRatio, memLatNs float64) float64 {
	m := c.models[coreID]
	tpi := m.Spec.CPIBase/c.freq[coreID] +
		m.Spec.API*(missRatio*memLatNs+(1-missRatio)*m.L2HitNs)
	return 1e9 / tpi
}

// instrRate is the core's estimated instruction rate for trace pacing, at
// the uncontended memory latency.
func (c *Chip) instrRate(coreID int) float64 {
	return c.perfIPS(coreID, c.missEst[coreID], app.DefaultMemLatNs)
}

// Regions returns each core's current total cache-region target (floor
// included).
func (c *Chip) Regions() []float64 {
	return append([]float64(nil), c.regions...)
}

// Frequencies returns each core's current operating frequency in GHz.
func (c *Chip) Frequencies() []float64 {
	return append([]float64(nil), c.freq...)
}

// PowerBudgets returns each core's current total power budget in watts
// (floor included).
func (c *Chip) PowerBudgets() []float64 {
	return append([]float64(nil), c.wattsBudg...)
}

// BandwidthAllocations returns each core's current bandwidth share in GB/s
// (only meaningful in BandwidthMarket mode).
func (c *Chip) BandwidthAllocations() []float64 {
	return append([]float64(nil), c.bwAlloc...)
}

// buildPlayers constructs market player specs from the clean
// online-monitored miss curves — §4.1.1's runtime utility modelling — with
// no fault injection. The final envy-freeness evaluation uses this path, so
// resilience is judged against what the applications actually wanted.
func (c *Chip) buildPlayers() ([]core.PlayerSpec, []market.Utility, error) {
	curves := make([]*cache.MissCurve, c.cfg.Cores)
	for i := range curves {
		curves[i] = c.umons[i].Curve()
	}
	return c.playersFrom(curves, false)
}

// allocationPlayers is the reallocation-path variant of buildPlayers: each
// monitor reading passes through the fault injector (possibly corrupting
// it) and then through the cache.Repair sanitizer, and the resulting
// utilities may be wrapped to misbehave mid-equilibrium. Corruption lives
// only in the allocator's view — the measurement path and the final
// evaluation stay clean, as a broken sensor cannot change how the hardware
// actually performs.
func (c *Chip) allocationPlayers() ([]core.PlayerSpec, []market.Utility, error) {
	curves := make([]*cache.MissCurve, c.cfg.Cores)
	for i := range curves {
		mc := c.umons[i].Curve()
		c.injector.CorruptCurve(mc.Ratio)
		if cache.Repair(mc.Ratio) {
			c.health.CurveRepairs++
		}
		curves[i] = mc
	}
	return c.playersFrom(curves, true)
}

// playersFrom builds the player specs for the given curves. In
// BandwidthMarket mode the players carry three-resource utilities. With
// faulty set, utilities pass through the injector's wrapper (a no-op when
// injection is disabled).
func (c *Chip) playersFrom(curves []*cache.MissCurve, faulty bool) ([]core.PlayerSpec, []market.Utility, error) {
	players := make([]core.PlayerSpec, c.cfg.Cores)
	utils := make([]market.Utility, c.cfg.Cores)
	for i := range players {
		var u interface {
			market.Utility
			MaxUsefulAlloc() []float64
			MinAlloc() []float64
		}
		var err error
		if c.cfg.BandwidthMarket {
			u, err = app.NewBandwidthUtility(c.models[i], curves[i])
		} else {
			u, err = app.NewUtility(c.models[i], curves[i])
		}
		if err != nil {
			return nil, nil, err
		}
		utils[i] = u
		pu := market.Utility(u)
		if faulty {
			pu = c.injector.WrapUtility(pu)
		}
		players[i] = core.PlayerSpec{
			Name:     fmt.Sprintf("%s#%d", c.bundle.Apps[i].Name, i),
			Utility:  pu,
			MaxAlloc: u.MaxUsefulAlloc(),
			MinAlloc: u.MinAlloc(),
		}
	}
	return players, utils, nil
}

// marketCapacity is the allocatable [Δregions, Δwatts(, ΔGB/s)].
func (c *Chip) marketCapacity() []float64 {
	totalRegions := float64(c.sys.L2CapacityBytes / c.sys.RegionBytes)
	cap := []float64{
		totalRegions - float64(c.cfg.Cores),
		c.sys.PowerBudgetW - numeric.Sum(c.floorW),
	}
	if c.cfg.BandwidthMarket {
		cap = append(cap, c.marketBandwidthGBs())
	}
	return cap
}

// Result summarises a simulated run.
type Result struct {
	Mechanism string
	// NormPerf is each core's achieved throughput normalised to its
	// stand-alone run — the per-application utility (§5).
	NormPerf []float64
	// WeightedSpeedup is Σ NormPerf, the system efficiency (Equation 5).
	WeightedSpeedup float64
	// EnvyFreeness evaluates Definition 3 on the final allocation using
	// the final monitored utilities.
	EnvyFreeness float64
	// MeanIterations is the average bidding–pricing iterations per
	// allocator invocation (0 for non-market mechanisms).
	MeanIterations float64
	// FinalOutcome is the last allocator decision (nil if never invoked).
	FinalOutcome *core.Outcome
	// AvgPowerW and MaxTempC summarise the electrical state.
	AvgPowerW float64
	MaxTempC  float64
	// ThrottleEpochs counts epochs where the RAPL-style governor had to
	// pull frequencies back under the chip TDP.
	ThrottleEpochs int
	// Health is the allocation pipeline's degraded-mode telemetry: final
	// state, failure counts by cause, pinned intervals and repairs.
	Health metrics.Health
	// Faults counts the faults the injector actually fired (all zero when
	// injection is disabled).
	Faults fault.Stats
	// Equilibrium aggregates the §6.4 convergence-cost counters (runs,
	// rounds, bid steps, wall time) over every equilibrium the run's
	// allocator performed.
	Equilibrium metrics.EquilibriumStats
}

// envyFreenessOf evaluates Definition 3 for an outcome under the given
// utilities. They are rebuilt from each core's own UMON curve, so no two
// share a class.
func envyFreenessOf(utils []market.Utility, allocs [][]float64) (float64, error) {
	return metrics.EnvyFreeness(len(utils), func(i int, a []float64) float64 {
		return utils[i].Value(a)
	}, allocs, nil)
}
