package app

import (
	"fmt"

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
// A Utility memoizes its hottest sub-computations (the watts→frequency
// inversion and the per-level hull interpolation), so Value is NOT safe for
// concurrent calls on the same instance. The market engine guarantees each
// player's utility is evaluated by at most one goroutine at a time (see
// DESIGN.md, "Performance & concurrency"); callers sharing one Utility
// across goroutines must add their own synchronisation.
type Utility struct {
	model  *Model
	curve  *cache.MissCurve
	freqs  []float64      // DVFS ladder
	hulls  []*numeric.PWL // per ladder level: convexified utility vs regions
	floorW float64
	alone  float64 // stand-alone perf (IPS)

	// Hot-path memo state. The market's finite-difference probes move one
	// allocation coordinate at a time, so between consecutive evaluations
	// either the watts (and thus the inverted frequency) or the regions
	// (and thus the hull lookup x) are unchanged. The frequency memo skips
	// a ~70 ns constant-time solve, not a search, and at two resources
	// only one of a hill-climb step's three evaluations hits it.
	hullEvals []*numeric.PWLEval // per ladder level, memoized
	inv       *power.FreqInverter
	lastWatts float64
	lastFreq  float64
	hasFreq   bool
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
	u := &Utility{
		model:  m,
		curve:  mono,
		freqs:  power.Levels(),
		floorW: m.FloorPowerW(),
		alone:  m.AlonePerfIPS(mono),
	}
	if u.alone <= 0 {
		return nil, fmt.Errorf("app %s: non-positive stand-alone performance", m.Spec.Name)
	}
	maxR := mono.MaxRegions()
	for _, f := range u.freqs {
		pts := make([]numeric.Point, 0, maxR)
		for c := 1; c <= maxR; c++ {
			perf := m.PerfIPS(mono.At(float64(c)), f)
			pts = append(pts, numeric.Point{X: float64(c), Y: perf / u.alone})
		}
		var hull *numeric.PWL
		var err error
		if convexify {
			hull, err = numeric.HullPWL(pts)
		} else {
			hull, err = numeric.NewPWL(pts)
		}
		if err != nil {
			return nil, fmt.Errorf("app %s: curve at %g GHz: %w", m.Spec.Name, f, err)
		}
		u.hulls = append(u.hulls, hull)
		u.hullEvals = append(u.hullEvals, hull.Evaluator())
	}
	u.inv = m.Power.NewFreqInverter(m.Spec.Activity, RefTempC)
	return u, nil
}

// freqAt is FreqAtTotalPowerGHz at the reference temperature with a
// single-entry memo: a probe that moves only the cache coordinate reuses
// the previous inversion.
func (u *Utility) freqAt(watts float64) float64 {
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

// Value implements market.Utility. alloc[0] is Δregions, alloc[1] Δwatts.
func (u *Utility) Value(alloc []float64) float64 {
	regions := 1.0 // free floor region
	if len(alloc) > 0 && alloc[0] > 0 {
		regions += alloc[0]
	}
	watts := u.floorW
	if len(alloc) > 1 && alloc[1] > 0 {
		watts += alloc[1]
	}
	f := u.freqAt(watts)
	return u.valueAt(regions, f)
}

// valueAt interpolates the hull stack at a continuous (regions, frequency).
func (u *Utility) valueAt(regions, fGHz float64) float64 {
	fs := u.freqs
	if fGHz <= fs[0] {
		return u.hullEvals[0].Eval(regions)
	}
	last := len(fs) - 1
	if fGHz >= fs[last] {
		return u.hullEvals[last].Eval(regions)
	}
	k := 0
	for k < last-1 && fs[k+1] < fGHz {
		k++
	}
	w := (fGHz - fs[k]) / (fs[k+1] - fs[k])
	return (1-w)*u.hullEvals[k].Eval(regions) + w*u.hullEvals[k+1].Eval(regions)
}

// MaxUsefulAlloc returns the allocation beyond which this application gains
// nothing: MaxRegions−1 extra regions and the watts gap from the floor to
// full frequency. XChange-Balanced sizes budgets with it.
func (u *Utility) MaxUsefulAlloc() []float64 {
	return []float64{
		float64(u.curve.MaxRegions() - 1),
		u.model.MaxPowerW() - u.floorW,
	}
}

// MinAlloc is the zero market allocation (floor only).
func (u *Utility) MinAlloc() []float64 { return []float64{0, 0} }

// FloorPowerW exposes the free power floor used by the simulator when
// translating market watts into total core power.
func (u *Utility) FloorPowerW() float64 { return u.floorW }

// AlonePerfIPS exposes the normalisation constant.
func (u *Utility) AlonePerfIPS() float64 { return u.alone }

// CacheUtilityCurve returns the normalised utility versus total regions at
// maximum frequency, both raw (monotone-cleaned) and convexified — the two
// series of Figure 2.
func (u *Utility) CacheUtilityCurve() (raw, hull []numeric.Point) {
	maxR := u.curve.MaxRegions()
	top := len(u.freqs) - 1
	for c := 1; c <= maxR; c++ {
		perf := u.model.PerfIPS(u.curve.At(float64(c)), u.freqs[top])
		raw = append(raw, numeric.Point{X: float64(c), Y: perf / u.alone})
		hull = append(hull, numeric.Point{X: float64(c), Y: u.hulls[top].Eval(float64(c))})
	}
	return raw, hull
}
