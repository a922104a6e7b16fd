package cmpsim

import (
	"errors"
	"sync"
	"sync/atomic"

	"rebudget/internal/app"
	"rebudget/internal/cache"
	"rebudget/internal/core"
	"rebudget/internal/market"
	"rebudget/internal/metrics"
	"rebudget/internal/numeric"
	"rebudget/internal/power"
)

// runEpoch simulates one allocation interval: every core issues its share
// of L2 accesses (paced by its current throughput estimate, each clamped to
// the sampling cap), the chip measures per-core miss ratios, retires
// instructions against the live memory latency, and advances thermals.
//
// The hot path works entirely out of the chip's epochScratch: pacing counts,
// miss tallies and the per-core address buffers are reused epoch to epoch,
// so the epoch machinery itself performs no heap allocation; what remains is
// a generator's LRU stack taking a 2 kB chunk backing while it still
// acquires new blocks — under one per epoch once a chip has aged
// (TestRunEpochCatalogAllocs). The cores' draws are generated a chunk at a
// time, one chunk ahead of the serial walk that interleaves them in the
// canonical (step, core) order (sched.go).
func (c *Chip) runEpoch(measured bool) {
	n := c.cfg.Cores
	s := &c.scratch
	s.ensure(n, c.cfg.MaxAccessesPerCoreEpoch)

	// Trace pacing: per-core access counts proportional to instruction
	// rate × memory intensity, each clamped to the sampling cap. The clamp
	// comes before the joint scale below, so no rate exceeds the cap and
	// scale (like sampleScale after it) is always 1: a core whose rate ×
	// API exceeds the cap — every core of the default catalog chips —
	// issues exactly MaxAccessesPerCoreEpoch accesses, and the bank model
	// never sees a sampling scale (ROADMAP item 2).
	counts, rates, misses := s.counts, s.rates, s.misses
	for i := 0; i < n; i++ {
		rates[i] = c.instrRate(i) * c.models[i].Spec.API * c.epochS
		if rates[i] > float64(c.cfg.MaxAccessesPerCoreEpoch) {
			rates[i] = float64(c.cfg.MaxAccessesPerCoreEpoch)
		}
	}
	scale := 1.0
	top := numeric.Max(rates)
	if top > float64(c.cfg.MaxAccessesPerCoreEpoch) {
		scale = float64(c.cfg.MaxAccessesPerCoreEpoch) / top
	}
	maxCount := 0
	for i := 0; i < n; i++ {
		counts[i] = int(rates[i] * scale)
		if counts[i] > maxCount {
			maxCount = counts[i]
		}
		misses[i] = 0
		s.credits[i] = 0
		s.cursor[i] = 0
	}

	// Generate the cores' streams and walk them through the L2 in the
	// canonical schedule, so cache pressure is temporally mixed rather
	// than phase-ordered; generation runs a chunk ahead of the walk.
	if maxCount > 0 {
		c.pipeline(maxCount)
	}

	// Measurement: per-core miss ratios and live DRAM latency from the
	// bank-level model (measured row locality + per-bank queueing; the
	// sampling scale would convert simulated miss counts into real rates,
	// but it is always 1 — see the pacing note above).
	for i := 0; i < n; i++ {
		if counts[i] > 0 {
			c.missEst[i] = float64(misses[i]) / float64(counts[i])
		} else {
			// Nothing was measured this epoch, so the old estimate is
			// stale. Decay it toward the pessimistic cold-start value
			// instead of trusting it indefinitely: an idle core that
			// resumes issuing should be re-measured, not modelled by an
			// epoch-old snapshot.
			c.missEst[i] += 0.5 * (1 - c.missEst[i])
		}
	}
	sampleScale := 1.0
	if scale > 0 {
		sampleScale = 1 / scale
	}
	memLat := interconnectNs + c.bankSim.EpochLatencyNs(c.epochS, sampleScale)
	deviceLat := c.bankSim.BaseLatencyNs()
	c.bankSim.Reset()

	// Retirement and thermals.
	for i := 0; i < n; i++ {
		coreLat := memLat
		if c.cfg.BandwidthMarket {
			// MemGuard-style enforcement: each core's misses queue on
			// its own allocated bandwidth share, not the shared pool.
			demandGBs := float64(misses[i]) * sampleScale * cache.LineSize /
				c.epochS / 1e9
			bw := c.bwAlloc[i]
			if bw < app.FloorBandwidthGBs {
				bw = app.FloorBandwidthGBs
			}
			coreLat = interconnectNs + deviceLat*(1+demandGBs/(2*bw))
		}
		perf := c.perfIPS(i, c.missEst[i], coreLat)
		if measured {
			c.instructions[i] += perf * c.epochS
		}
		draw := c.models[i].Power.Total(c.freq[i], c.models[i].Spec.Activity, c.therm[i].Temp())
		c.therm[i].Update(draw, c.epochS)
	}
	c.enforcePowerBudget()
	if measured {
		c.elapsed += c.epochS
	}
}

// enforcePowerBudget is the RAPL-style chip governor: frequencies are set
// from per-core budgets at allocation time, but leakage grows with the
// temperatures that develop *between* allocations, so the measured draw can
// drift above the chip TDP. When it does, every core's effective power
// budget is scaled back proportionally and its frequency re-derived at the
// live temperature. Returns whether a throttle happened.
func (c *Chip) enforcePowerBudget() bool {
	total := 0.0
	for i := range c.models {
		total += c.models[i].Power.Total(c.freq[i], c.models[i].Spec.Activity, c.therm[i].Temp())
	}
	if total <= c.sys.PowerBudgetW {
		return false
	}
	scale := c.sys.PowerBudgetW / total
	for i := range c.models {
		c.freq[i] = c.models[i].FreqAtTotalPowerGHz(c.wattsBudg[i]*scale, c.therm[i].Temp())
	}
	c.throttles++
	return true
}

// reallocate invokes the mechanism on the freshly monitored utilities and
// installs the resulting allocation. It is also the degraded-mode state
// machine: allocation failures never abort the simulation. Instead the
// previously installed allocation stays pinned, and after MaxConsecFailures
// consecutive failures the pipeline stops probing the allocator for a
// CooldownIntervals window (Degraded), then re-probes (Recovering) — a
// failure mid-recovery falls straight back to Degraded, a success returns
// to Healthy. The returned error is reserved for construction bugs, not
// runtime faults.
func (c *Chip) reallocate(alloc core.Allocator) error {
	if c.health.State == metrics.Degraded {
		// Pinned: serve the last installed allocation without probing.
		c.cooldownLeft--
		c.health.PinnedIntervals++
		if c.cooldownLeft <= 0 {
			c.health.Transition(metrics.Recovering)
		}
		return nil
	}
	players, _, err := c.allocationPlayers()
	if err != nil {
		return err
	}
	c.health.AllocAttempts++
	out, err := alloc.Allocate(c.marketCapacity(), players)
	if err != nil {
		c.health.RecordFailure(classifyFailure(err))
		c.consecFails++
		if c.health.State == metrics.Recovering || c.consecFails >= maxConsecFailures {
			// One failure is evidence enough mid-recovery; from Healthy it
			// takes a streak. Either way the last good allocation stays on
			// the hardware for the cooldown window.
			c.health.Transition(metrics.Degraded)
			c.cooldownLeft = cooldownIntervals
			c.consecFails = 0
		}
	} else {
		c.consecFails = 0
		c.health.Transition(metrics.Healthy)
		if !out.Converged {
			c.health.NonConverged++
		}
		c.lastOutcome = out
		c.iterSum += out.Iterations
		c.reallocs++
		// applyAllocation re-reads the live monitor curves for the Talus
		// split, so it must run before the epoch counters are drained.
		c.applyAllocation(out.Allocations)
	}
	// Drain epoch counters whether or not the probe succeeded; shadow tags
	// stay warm (§4.1.1 monitors run continuously).
	for _, u := range c.umons {
		u.Reset()
	}
	return nil
}

// classifyFailure maps an allocation error onto the telemetry cause
// taxonomy via the typed errors the hardened market layer returns.
func classifyFailure(err error) metrics.FailureCause {
	var ue *market.UtilityError
	if errors.As(err, &ue) {
		return metrics.CauseUtility
	}
	var nc *market.NotConvergedError
	if errors.As(err, &nc) {
		return metrics.CauseSolver
	}
	if errors.Is(err, core.ErrBadInput) {
		return metrics.CauseMonitor
	}
	return metrics.CauseAllocator
}

// Run simulates the bundle under the given mechanism and returns the
// result. Stand-alone reference throughputs are simulated on demand and
// cached process-wide (they are mechanism-independent).
func (c *Chip) Run(alloc core.Allocator) (*Result, error) {
	return c.RunWithSwitches(alloc, nil)
}

// --- stand-alone reference runs ---

type aloneKey struct {
	name        string
	fingerprint uint64 // full Spec hash: same-named custom specs must not collide
	l2Bytes     int
	l2Ways      int
}

// aloneEntry is one singleflight slot: the first caller to reach the entry
// runs the reference simulation inside once; every concurrent or later
// caller for the same key blocks on that once and shares the result.
type aloneEntry struct {
	once sync.Once
	perf float64
	err  error
}

var (
	aloneMu    sync.Mutex
	aloneCache = map[aloneKey]*aloneEntry{}
	// aloneComputes counts actual reference simulations (not cache hits);
	// the singleflight regression test asserts it stays at one per key no
	// matter how many chips ask concurrently.
	aloneComputes atomic.Int64
)

// alonePerfIPS simulates the application truly alone — the entire shared L2
// to itself at full frequency (§4.1.1: "running alone and thus owns all the
// resources") — and returns steady-state instructions per second. The run
// warms the cache until the measured miss ratio stabilises, then averages a
// few measurement epochs. Results are cached per (spec fingerprint, cache
// geometry), so custom specs that reuse a catalog name with different
// parameters get their own reference run instead of a silently wrong one.
// The cache is a singleflight: the mutex only guards the map, and the
// ~400-epoch warmup runs under a per-key sync.Once, so concurrent chips
// asking for the same reference wait for one compute instead of each
// duplicating it (the old code released the lock during compute and raced).
func alonePerfIPS(spec app.Spec, sys SystemConfig) (float64, error) {
	key := aloneKey{
		name:        spec.Name,
		fingerprint: spec.Fingerprint(),
		l2Bytes:     sys.L2CapacityBytes,
		l2Ways:      sys.L2Ways,
	}
	aloneMu.Lock()
	e := aloneCache[key]
	if e == nil {
		e = &aloneEntry{}
		aloneCache[key] = e
	}
	aloneMu.Unlock()
	e.once.Do(func() {
		aloneComputes.Add(1)
		e.perf, e.err = computeAlonePerfIPS(spec, sys)
	})
	return e.perf, e.err
}

// computeAlonePerfIPS is the uncached reference simulation.
func computeAlonePerfIPS(spec app.Spec, sys SystemConfig) (float64, error) {
	m := app.NewModel(spec)
	l2, err := cache.NewPartitioned(cache.Config{
		CapacityBytes: sys.L2CapacityBytes,
		Ways:          sys.L2Ways,
		Partitions:    1,
	})
	if err != nil {
		return 0, err
	}
	g, err := m.NewTrace(0xA10E, 0)
	if err != nil {
		return 0, err
	}
	const (
		epochAccesses = 8192
		maxEpochs     = 400
		stableTol     = 0.002
		stableNeed    = 3
		measureEpochs = 3
	)
	epochMiss := func() float64 {
		miss := 0
		for k := 0; k < epochAccesses; k++ {
			if !l2.Access(g.Next(), 0) {
				miss++
			}
		}
		return float64(miss) / float64(epochAccesses)
	}
	prev := epochMiss()
	stable := 0
	for e := 0; e < maxEpochs && stable < stableNeed; e++ {
		cur := epochMiss()
		if cur-prev < stableTol && prev-cur < stableTol {
			stable++
		} else {
			stable = 0
		}
		prev = cur
	}
	sum := 0.0
	for e := 0; e < measureEpochs; e++ {
		sum += epochMiss()
	}
	return m.PerfIPS(sum/measureEpochs, power.MaxFreqGHz), nil
}
