package app

import (
	"fmt"

	"rebudget/internal/cache"
	"rebudget/internal/power"
)

// FloorBandwidthGBs is the free per-core memory-bandwidth floor, the
// analogue of the free cache region and minimum-frequency power (§4.1):
// every core can always drain some misses.
const FloorBandwidthGBs = 0.25

// BandwidthUtility extends the two-resource multicore utility with memory
// bandwidth as a third market resource — the paper's framework is defined
// for M resources (§2) but its evaluation stops at cache + power; this is
// the natural next resource its introduction motivates. The allocation
// vector is [Δregions, Δwatts, ΔGB/s] beyond the per-core floors.
//
// Bandwidth enters through the miss-service latency: a core granted b GB/s
// with a miss-traffic demand d sees an M/D/1-style latency inflation in
// ρ = d/b. Utility is non-decreasing and concave in b (latency relief has
// diminishing returns); the cache dimension uses the Talus hull of the
// miss curve, keeping it continuous and cliff-free.
// Like Utility, a BandwidthUtility memoizes its watts→frequency inversion
// and is therefore NOT safe for concurrent Value calls on one instance; the
// market engine evaluates each player on at most one goroutine at a time.
type BandwidthUtility struct {
	model        *Model
	tal          *cache.Talus
	floorW       float64
	alone        float64
	baseLatNs    float64
	maxUsefulGBs float64

	// Single-entry watts→frequency memo: perf and demandGBs invert the
	// power model at the same watts within one evaluation, and probes that
	// move only the cache or bandwidth coordinate keep watts fixed.
	inv       *power.FreqInverter
	lastWatts float64
	lastFreq  float64
	hasFreq   bool
}

// NewBandwidthUtility builds the three-resource utility surface.
func NewBandwidthUtility(m *Model, curve *cache.MissCurve) (*BandwidthUtility, error) {
	if m == nil || curve == nil {
		return nil, fmt.Errorf("app: nil model or curve")
	}
	tal, err := cache.NewTalus(curve)
	if err != nil {
		return nil, err
	}
	u := &BandwidthUtility{
		model:     m,
		tal:       tal,
		floorW:    m.FloorPowerW(),
		baseLatNs: m.MemLatNs,
		inv:       m.Power.NewFreqInverter(m.Spec.Activity, RefTempC),
	}
	// Stand-alone: all cache, max frequency, uncontended memory.
	u.alone = u.perf(float64(curve.MaxRegions()), MaxPowerAlloc(m), 1e9)
	if u.alone <= 0 {
		return nil, fmt.Errorf("app %s: non-positive stand-alone performance", m.Spec.Name)
	}
	// The demand at full throttle bounds how much bandwidth can help:
	// beyond ~10× the arrival rate the queueing term d/(2b) is under 5%
	// and further bandwidth is noise.
	u.maxUsefulGBs = u.demandGBs(float64(curve.MaxRegions()), MaxPowerAlloc(m)) * 10
	if u.maxUsefulGBs < FloorBandwidthGBs {
		u.maxUsefulGBs = FloorBandwidthGBs
	}
	return u, nil
}

// MaxPowerAlloc is the watts beyond the floor that saturate frequency.
func MaxPowerAlloc(m *Model) float64 {
	return m.MaxPowerW() - m.FloorPowerW()
}

// freqAt is FreqAtTotalPowerGHz at the reference temperature through the
// single-entry memo.
func (u *BandwidthUtility) freqAt(watts float64) float64 {
	if u.hasFreq && watts == u.lastWatts {
		return u.lastFreq
	}
	f, err := u.inv.FreqAtPower(watts)
	if err != nil {
		f = power.MinFreqGHz
	}
	u.lastWatts, u.lastFreq, u.hasFreq = watts, f, true
	return f
}

// demandGBs is the miss traffic the core would generate at an uncontended
// memory system, used as the queueing arrival rate.
func (u *BandwidthUtility) demandGBs(regions, dWatts float64) float64 {
	m := u.tal.MissAt(regions)
	f := u.freqAt(u.floorW + dWatts)
	perf := u.model.PerfIPS(m, f)
	return perf * u.model.Spec.API * m * cache.LineSize / 1e9
}

// perf evaluates instructions/second at a total allocation.
func (u *BandwidthUtility) perf(regions, dWatts, bwGBs float64) float64 {
	miss := u.tal.MissAt(regions)
	f := u.freqAt(u.floorW + dWatts)
	// One-step fixed point: demand at uncontended latency sets the
	// queueing load on the allocated bandwidth. The open-form M/D/1 term
	// d/(2b) makes latency convex-decreasing in b, so throughput
	// 1/(A + C/b) is exactly concave in the bandwidth allocation.
	demand := u.demandGBs(regions, dWatts)
	if bwGBs < FloorBandwidthGBs {
		bwGBs = FloorBandwidthGBs
	}
	lat := u.baseLatNs * (1 + demand/(2*bwGBs))
	tpi := u.model.Spec.CPIBase/f +
		u.model.Spec.API*(miss*lat+(1-miss)*u.model.L2HitNs)
	return 1e9 / tpi
}

// Value implements market.Utility over [Δregions, Δwatts, ΔGB/s].
func (u *BandwidthUtility) Value(alloc []float64) float64 {
	regions, dWatts, dBW := 1.0, 0.0, 0.0
	if len(alloc) > 0 && alloc[0] > 0 {
		regions += alloc[0]
	}
	if len(alloc) > 1 && alloc[1] > 0 {
		dWatts = alloc[1]
	}
	if len(alloc) > 2 && alloc[2] > 0 {
		dBW = alloc[2]
	}
	return u.perf(regions, dWatts, FloorBandwidthGBs+dBW) / u.alone
}

// MaxUsefulAlloc bounds the allocations beyond which nothing improves.
func (u *BandwidthUtility) MaxUsefulAlloc() []float64 {
	return []float64{
		float64(MaxRegions - 1),
		MaxPowerAlloc(u.model),
		u.maxUsefulGBs,
	}
}

// MinAlloc is the zero market allocation.
func (u *BandwidthUtility) MinAlloc() []float64 { return []float64{0, 0, 0} }

// FloorPowerW exposes the power floor.
func (u *BandwidthUtility) FloorPowerW() float64 { return u.floorW }
