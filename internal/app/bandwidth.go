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
// Like Utility, a BandwidthUtility is an immutable shared profile plus a
// private watts→frequency memo: Value is NOT safe for concurrent calls on
// one instance but is across twins; the market engine evaluates each player
// on at most one goroutine at a time.
type BandwidthUtility struct {
	prof *bandwidthProfile

	// Single-entry watts→frequency memo: perf and demandGBs invert the
	// power model at the same watts within one evaluation, and probes that
	// move only the cache or bandwidth coordinate keep watts fixed.
	freq freqMemo
}

// bandwidthProfile is the part of a BandwidthUtility that never changes
// after NewBandwidthUtility returns.
type bandwidthProfile struct {
	model        *Model
	tal          *cache.Talus
	inv          power.FreqInverter
	floorW       float64
	alone        float64
	baseLatNs    float64
	maxUsefulGBs float64
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
	p := &bandwidthProfile{
		model:     m,
		tal:       tal,
		inv:       *m.Power.NewFreqInverter(m.Spec.Activity, RefTempC),
		floorW:    m.FloorPowerW(),
		baseLatNs: m.MemLatNs,
	}
	u := &BandwidthUtility{prof: p}
	// Stand-alone: all cache, max frequency, uncontended memory.
	p.alone = u.perf(float64(curve.MaxRegions()), MaxPowerAlloc(m), 1e9)
	if p.alone <= 0 {
		return nil, fmt.Errorf("app %s: non-positive stand-alone performance", m.Spec.Name)
	}
	// The demand at full throttle bounds how much bandwidth can help:
	// beyond ~10× the arrival rate the queueing term d/(2b) is under 5%
	// and further bandwidth is noise.
	p.maxUsefulGBs = u.demandGBs(float64(curve.MaxRegions()), MaxPowerAlloc(m)) * 10
	if p.maxUsefulGBs < FloorBandwidthGBs {
		p.maxUsefulGBs = FloorBandwidthGBs
	}
	return u, nil
}

// Twin returns a utility computing the same function over the same shared
// profile with a memo of its own (see Utility.Twin).
func (u *BandwidthUtility) Twin() *BandwidthUtility { return &BandwidthUtility{prof: u.prof} }

// Identity names the function this utility computes (see
// market.Identified).
func (u *BandwidthUtility) Identity() (key any, scale float64) { return u.prof, 1 }

// MaxPowerAlloc is the watts beyond the floor that saturate frequency.
func MaxPowerAlloc(m *Model) float64 {
	return m.MaxPowerW() - m.FloorPowerW()
}

// demandGBs is the miss traffic the core would generate at an uncontended
// memory system, used as the queueing arrival rate.
func (u *BandwidthUtility) demandGBs(regions, dWatts float64) float64 {
	p := u.prof
	m := p.tal.MissAt(regions)
	f := u.freq.at(&p.inv, p.floorW+dWatts)
	perf := p.model.PerfIPS(m, f)
	return perf * p.model.Spec.API * m * cache.LineSize / 1e9
}

// perf evaluates instructions/second at a total allocation.
func (u *BandwidthUtility) perf(regions, dWatts, bwGBs float64) float64 {
	p := u.prof
	miss := p.tal.MissAt(regions)
	f := u.freq.at(&p.inv, p.floorW+dWatts)
	// One-step fixed point: demand at uncontended latency sets the
	// queueing load on the allocated bandwidth. The open-form M/D/1 term
	// d/(2b) makes latency convex-decreasing in b, so throughput
	// 1/(A + C/b) is exactly concave in the bandwidth allocation.
	demand := u.demandGBs(regions, dWatts)
	if bwGBs < FloorBandwidthGBs {
		bwGBs = FloorBandwidthGBs
	}
	lat := p.baseLatNs * (1 + demand/(2*bwGBs))
	tpi := p.model.Spec.CPIBase/f +
		p.model.Spec.API*(miss*lat+(1-miss)*p.model.L2HitNs)
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
	return u.perf(regions, dWatts, FloorBandwidthGBs+dBW) / u.prof.alone
}

// MaxUsefulAlloc bounds the allocations beyond which nothing improves.
func (u *BandwidthUtility) MaxUsefulAlloc() []float64 {
	return []float64{
		float64(MaxRegions - 1),
		MaxPowerAlloc(u.prof.model),
		u.prof.maxUsefulGBs,
	}
}

// MinAlloc is the zero market allocation.
func (u *BandwidthUtility) MinAlloc() []float64 { return []float64{0, 0, 0} }

// FloorPowerW exposes the power floor.
func (u *BandwidthUtility) FloorPowerW() float64 { return u.prof.floorW }
