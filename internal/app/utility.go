package app

import (
	"fmt"
	"math"

	"rebudget/internal/cache"
	"rebudget/internal/numeric"
	"rebudget/internal/power"
)

// Utility is an application's market utility over the two allocated
// resources, alloc = [Δregions, Δwatts]: cache regions and watts granted
// *beyond* the free floor (one region + 800 MHz power, §4.1).
//
// Construction follows the paper's §4.1.1/§6 methodology: performance is
// sampled on a cache × frequency grid, normalised to the stand-alone run,
// and the cache dimension is convexified per frequency level (Talus /
// Figure 2), yielding a utility that is continuous, non-decreasing and
// concave along each resource axis. Between DVFS levels the utility
// interpolates linearly in frequency, and power maps to frequency through
// the concave inverse of the power model, preserving concavity in watts.
//
// A Utility is two things. Everything fixed at construction — the model,
// the monotone curve, the DVFS ladder, the per-level hulls and their
// integer-region index, the power inverter and the normalisation constants —
// is an immutable profile, built once and shared by every Twin. The only
// mutable state is a single-entry watts→frequency memo private to the
// instance, so Value is NOT safe for concurrent calls on the same instance
// but is across twins. The market engine guarantees each player's utility
// is evaluated by at most one goroutine at a time (see DESIGN.md,
// "Performance & concurrency"); callers sharing one Utility across
// goroutines must add their own synchronisation.
type Utility struct {
	prof *utilityProfile

	// Hot-path memo state. The market's finite-difference probes move one
	// allocation coordinate at a time, so a cache probe keeps the watts
	// (and thus the inverted frequency) of the evaluation before it. The
	// memo skips a ~30 ns constant-time solve, not a search, and at two
	// resources only one of a hill-climb step's three evaluations hits it.
	freq freqMemo
}

// utilityProfile is the part of a Utility that never changes after
// newUtility returns. The nine hulls' knots live in one backing array,
// level after level, and seg indexes them by integer region: every knot
// sits on an integer region, so the segment PWL.Eval would search for at x
// is fixed for every x in (c−1, c]. A profile is a handful of allocations
// however many ladder levels it has.
type utilityProfile struct {
	model  *Model
	curve  *cache.MissCurve
	freqs  []float64       // DVFS ladder
	knots  []numeric.Point // every ladder level's convexified utility vs regions
	seg    []uint16        // [level*stride + c]: smallest knots index of the level with X ≥ c
	stride int             // maxR+1 entries per level, c = 0..maxR
	inv    power.FreqInverter
	floorW float64
	alone  float64 // stand-alone perf (IPS)
}

// freqMemo is the single-entry watts→frequency memo both utility kinds keep
// per instance: a probe that moves only the cache (or bandwidth) coordinate
// reuses the previous inversion.
type freqMemo struct {
	watts, freq float64
	ok          bool
}

// at is FreqAtTotalPowerGHz at the inverter's operating point through the
// memo.
func (c *freqMemo) at(inv *power.FreqInverter, watts float64) float64 {
	if c.ok && watts == c.watts {
		return c.freq
	}
	f, err := inv.FreqAtPower(watts)
	if err != nil {
		f = power.MinFreqGHz
	}
	c.watts, c.freq, c.ok = watts, f, true
	return f
}

// NewRawUtility builds the utility surface WITHOUT Talus convexification —
// the cache dimension keeps its cliffs and plateaus. It exists for the
// ablation study showing why §4.1.1 insists on convexifying: markets over
// raw utilities misjudge marginal utility around cliffs.
func NewRawUtility(m *Model, curve *cache.MissCurve) (*Utility, error) {
	return newUtility(m, curve, false)
}

// NewUtility builds the utility surface from a miss-rate curve (analytic in
// phase 1, UMON-measured in phase 2).
func NewUtility(m *Model, curve *cache.MissCurve) (*Utility, error) {
	return newUtility(m, curve, true)
}

func newUtility(m *Model, curve *cache.MissCurve, convexify bool) (*Utility, error) {
	if m == nil || curve == nil {
		return nil, fmt.Errorf("app: nil model or curve")
	}
	mono := curve.Monotone()
	p := &utilityProfile{
		model:  m,
		curve:  mono,
		freqs:  power.Levels(),
		inv:    *m.Power.NewFreqInverter(m.Spec.Activity, RefTempC),
		floorW: m.FloorPowerW(),
		alone:  m.AlonePerfIPS(mono),
	}
	if p.alone <= 0 {
		return nil, fmt.Errorf("app %s: non-positive stand-alone performance", m.Spec.Name)
	}
	maxR := mono.MaxRegions()
	if len(p.freqs)*maxR > math.MaxUint16 {
		return nil, fmt.Errorf("app %s: %d regions overflow the hull index", m.Spec.Name, maxR)
	}
	knots := make([]numeric.Point, 0, len(p.freqs)*maxR)
	p.stride = maxR + 1
	p.seg = make([]uint16, 0, len(p.freqs)*p.stride)
	pts := make([]numeric.Point, maxR)
	for _, f := range p.freqs {
		for c := 1; c <= maxR; c++ {
			perf := m.PerfIPS(mono.At(float64(c)), f)
			pts[c-1] = numeric.Point{X: float64(c), Y: perf / p.alone}
		}
		from := len(knots)
		if convexify {
			knots = numeric.AppendUpperConvexHull(knots, pts)
		} else {
			knots = append(knots, pts...)
		}
		if _, err := numeric.PWLOver(knots[from:]); err != nil {
			return nil, fmt.Errorf("app %s: curve at %g GHz: %w", m.Spec.Name, f, err)
		}
		// The level's knots run from X = 1 to X = maxR, so the scan never
		// leaves them.
		for c, i := 0, from; c <= maxR; c++ {
			for knots[i].X < float64(c) {
				i++
			}
			p.seg = append(p.seg, uint16(i))
		}
	}
	p.knots = knots
	return &Utility{prof: p}, nil
}

// Twin returns a utility computing the same function over the same shared
// profile with a frequency memo of its own, so it and the receiver may be
// evaluated concurrently. Profiling an application once and handing every
// further core running it a twin is how workload.NewSetup avoids
// re-deriving identical hulls.
func (u *Utility) Twin() *Utility { return &Utility{prof: u.prof} }

// Identity names the function this utility computes (see
// market.Identified): twins share a profile and therefore a key, and no
// scale is applied. The profile never changes after newUtility returns and
// Value reads nothing else but the instance's exact frequency memo, so the
// key names one function for its whole lifetime, as a memo across calls
// needs.
func (u *Utility) Identity() (key any, scale float64) { return u.prof, 1 }

// Value implements market.Utility. alloc[0] is Δregions, alloc[1] Δwatts.
func (u *Utility) Value(alloc []float64) float64 {
	regions := 1.0 // free floor region
	if len(alloc) > 0 && alloc[0] > 0 {
		regions += alloc[0]
	}
	watts := u.prof.floorW
	if len(alloc) > 1 && alloc[1] > 0 {
		watts += alloc[1]
	}
	f := u.freq.at(&u.prof.inv, watts)
	return u.valueAt(regions, f)
}

// valueAt interpolates the hull stack at a continuous (regions, frequency).
func (u *Utility) valueAt(regions, fGHz float64) float64 {
	p := u.prof
	fs := p.freqs
	if fGHz <= fs[0] {
		return p.hullAt(0, regions)
	}
	last := len(fs) - 1
	if fGHz >= fs[last] {
		return p.hullAt(last, regions)
	}
	k := 0
	for k < last-1 && fs[k+1] < fGHz {
		k++
	}
	w := (fGHz - fs[k]) / (fs[k+1] - fs[k])
	return (1-w)*p.hullAt(k, regions) + w*p.hullAt(k+1, regions)
}

// hullAt evaluates ladder level k's hull at x bit for bit as PWL.Eval over
// its knots would: clamped to the end knots, which sit at X = 1 and
// X = maxR on every level, NaN for NaN, and otherwise the same
// interpolation on the segment seg names for ⌈x⌉.
func (p *utilityProfile) hullAt(k int, x float64) float64 {
	row := p.seg[k*p.stride : (k+1)*p.stride]
	maxR := len(row) - 1
	switch {
	case x <= 1:
		return p.knots[row[0]].Y
	case x >= float64(maxR):
		return p.knots[row[maxR]].Y
	case math.IsNaN(x):
		return x
	}
	c := int(x) // 1 < x < maxR: truncation is ⌊x⌋, and ⌈x⌉ is one more off an integer
	if float64(c) < x {
		c++
	}
	i := row[c]
	a, b := p.knots[i-1], p.knots[i]
	t := (x - a.X) / (b.X - a.X)
	return a.Y + t*(b.Y-a.Y)
}

// MaxUsefulAlloc returns the allocation beyond which this application gains
// nothing: MaxRegions−1 extra regions and the watts gap from the floor to
// full frequency. XChange-Balanced sizes budgets with it.
func (u *Utility) MaxUsefulAlloc() []float64 {
	return []float64{
		float64(u.prof.curve.MaxRegions() - 1),
		u.prof.model.MaxPowerW() - u.prof.floorW,
	}
}

// MinAlloc is the zero market allocation (floor only).
func (u *Utility) MinAlloc() []float64 { return []float64{0, 0} }

// FloorPowerW exposes the free power floor used by the simulator when
// translating market watts into total core power.
func (u *Utility) FloorPowerW() float64 { return u.prof.floorW }

// CacheUtilityCurve returns the normalised utility versus total regions at
// maximum frequency, both raw (monotone-cleaned) and convexified — the two
// series of Figure 2.
func (u *Utility) CacheUtilityCurve() (raw, hull []numeric.Point) {
	p := u.prof
	maxR := p.curve.MaxRegions()
	top := len(p.freqs) - 1
	for c := 1; c <= maxR; c++ {
		perf := p.model.PerfIPS(p.curve.At(float64(c)), p.freqs[top])
		raw = append(raw, numeric.Point{X: float64(c), Y: perf / p.alone})
		hull = append(hull, numeric.Point{X: float64(c), Y: p.hullAt(top, float64(c))})
	}
	return raw, hull
}
