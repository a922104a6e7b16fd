// Package power models per-core DVFS and chip power in the style of the
// paper's setup: Wattch-like dynamic power proportional to C·V²·f on a
// 0.8–4.0 GHz ladder with 0.8–1.2 V scaling, plus Sandy-Bridge-style static
// power modelled as a fraction of dynamic power that grows exponentially
// with temperature (§5.1). Power is a continuous market resource (RAPL sets
// budgets at 0.125 W granularity), so the package exposes both the discrete
// DVFS ladder and continuous inverse lookups.
package power

import (
	"fmt"
	"math"
)

// DVFS ladder constants (Table 1).
const (
	MinFreqGHz = 0.8
	MaxFreqGHz = 4.0
	FreqStep   = 0.4 // 9 discrete operating points: 0.8, 1.2, …, 4.0
	MinVolt    = 0.8
	MaxVolt    = 1.2
	// TDPPerCoreW is the chip power budget per core (10 W at 65 nm).
	TDPPerCoreW = 10.0
)

// Model captures a core's electrical parameters. The zero value is not
// usable; use DefaultModel or fill all fields.
type Model struct {
	// CeffnF is the effective switched capacitance in nanofarads,
	// scaled by the workload's activity factor at full throttle.
	CeffnF float64
	// StaticFrac0 is the static/dynamic power fraction at ReferenceTempC.
	StaticFrac0 float64
	// ReferenceTempC and TempScaleC shape the exponential temperature
	// dependence of leakage: frac(T) = StaticFrac0·exp((T-Ref)/Scale).
	ReferenceTempC float64
	TempScaleC     float64
}

// DefaultModel is calibrated so a fully active core at 4.0 GHz, 1.2 V and
// 70 °C consumes ≈19 W — nearly twice the 10 W per-core TDP share, as on
// real power-limited chips (PL2 ≈ 2× PL1). The gap is what makes the power
// budget a scarce, market-worthy resource: not every core can run at
// maximum frequency within the chip's TDP (§5.1).
func DefaultModel() Model {
	return Model{
		CeffnF:         2.50,
		StaticFrac0:    0.30,
		ReferenceTempC: 70,
		TempScaleC:     35,
	}
}

// Levels returns the discrete DVFS operating frequencies in GHz, ascending.
func Levels() []float64 {
	out := make([]float64, 0, int(math.Round((MaxFreqGHz-MinFreqGHz)/FreqStep))+1)
	for f := MinFreqGHz; f <= MaxFreqGHz+1e-9; f += FreqStep {
		out = append(out, math.Round(f*10)/10)
	}
	return out
}

// Voltage returns the supply voltage for a (possibly non-ladder) frequency,
// interpolated linearly between the ladder endpoints and clamped.
func Voltage(fGHz float64) float64 {
	if fGHz <= MinFreqGHz {
		return MinVolt
	}
	if fGHz >= MaxFreqGHz {
		return MaxVolt
	}
	t := (fGHz - MinFreqGHz) / (MaxFreqGHz - MinFreqGHz)
	return MinVolt + t*(MaxVolt-MinVolt)
}

// envelope returns C·V²·f, the full-activity dynamic power that both terms
// of Total scale. C[nF]·V²·f[GHz] happens to come out in watts
// (1e-9 F × 1e9 Hz).
func (m Model) envelope(fGHz float64) float64 {
	v := Voltage(fGHz)
	return m.CeffnF * v * v * fGHz
}

// staticFrac is the static/dynamic power fraction at die temperature tempC.
func (m Model) staticFrac(tempC float64) float64 {
	return m.StaticFrac0 * math.Exp((tempC-m.ReferenceTempC)/m.TempScaleC)
}

// Total returns dynamic plus static power in watts.
func (m Model) Total(fGHz, activity, tempC float64) float64 {
	return m.totalAt(fGHz, activity, m.staticFrac(tempC))
}

// totalAt is Total with the leakage fraction already evaluated — the one
// float expression for total power: dynamic (the voltage-frequency envelope
// times activity) plus static (the envelope times the leakage fraction at
// the die temperature, a common simplification of the V·exp(T) dependence),
// with the envelope computed once. The simulator reaches it through Total and
// the inversion's polish calls it directly, so both compare the same bits.
func (m Model) totalAt(fGHz, activity, frac float64) float64 {
	t := m.envelope(fGHz)
	return t*activity + frac*t
}

// FreqAtPower returns the highest continuous frequency in
// [MinFreqGHz, MaxFreqGHz] whose total power does not exceed budgetW, or an
// error if even the minimum frequency needs more than budgetW. It is a
// one-shot FreqInverter: one exp, then the constant-time solve.
func (m Model) FreqAtPower(budgetW, activity, tempC float64) (float64, error) {
	v := m.inverterAt(activity, tempC)
	return v.FreqAtPower(budgetW)
}

// Between the ladder ends Voltage is linear in frequency, V = voltA + voltB·f,
// so at a fixed operating point Total(f) = K·(voltA + voltB·f)²·f with
// K = C·(activity + frac): a monotone, convex cubic on [Min, Max].
const (
	voltB = (MaxVolt - MinVolt) / (MaxFreqGHz - MinFreqGHz)
	voltA = MinVolt - voltB*MinFreqGHz
)

// Work bounds of FreqInverter.FreqAtPower.
const (
	// newtonSteps caps the real-valued solve. From the table start the
	// first Newton step is already under newtonTol anywhere on the ladder;
	// the cap only matters for a non-finite budget.
	newtonSteps = 6
	// newtonTol ends the solve early: convergence is quadratic, so a step
	// this small leaves an error far below one ulp.
	newtonTol = 1e-8
	// polishUlps caps the ulp walk from the cubic's root to the float
	// fixed point. Rounding in totalAt displaces the two by a handful of
	// ulps; past the cap the bracket the walk holds is bisected instead.
	polishUlps = 16
)

// FreqInverter answers FreqAtPower queries for one fixed (activity,
// temperature) operating point — the shape of every utility-model
// evaluation, which probes many power budgets at the reference temperature.
// Everything that does not depend on the budget (the leakage exponential,
// the DVFS-range boundary powers, the cubic's scale) is evaluated once, at
// construction.
type FreqInverter struct {
	m        Model
	activity float64
	frac     float64 // staticFrac at the operating point's temperature
	minW     float64 // Total at MinFreqGHz
	maxW     float64 // Total at MaxFreqGHz
	invK     float64 // 1/K: budget·invK = (voltA + voltB·f)²·f
}

// NewFreqInverter builds an inverter for the operating point.
func (m Model) NewFreqInverter(activity, tempC float64) *FreqInverter {
	v := m.inverterAt(activity, tempC)
	return &v
}

func (m Model) inverterAt(activity, tempC float64) FreqInverter {
	frac := m.staticFrac(tempC)
	return FreqInverter{
		m:        m,
		activity: activity,
		frac:     frac,
		minW:     m.totalAt(MinFreqGHz, activity, frac),
		maxW:     m.totalAt(MaxFreqGHz, activity, frac),
		invK:     1 / (m.CeffnF * (activity + frac)),
	}
}

// The cubic the solve inverts, (voltA + voltB·f)²·f = c, does not depend on
// the operating point — only c = budget·invK does — so one table of its
// inverse serves every inverter: guessCells uniform cells in c across the
// ladder, a cubic Hermite piece each (values and slopes df/dc = 1/cubic′ at
// the cell ends), 8 kB built once at start-up and never written again. The
// guess is within ~2e-9 GHz of the root (TestFreqGuessError pins 1e-8), so
// the first Newton step is already under newtonTol.
const guessCells = 256

var (
	guessC0   = cubic(MinFreqGHz)
	guessInvH = guessCells / (cubic(MaxFreqGHz) - guessC0)
	guessPoly = buildGuessTable()
)

func cubic(f float64) float64 {
	u := voltA + voltB*f
	return u * u * f
}

// cubicSlope is d(cubic)/df.
func cubicSlope(f float64) float64 {
	u := voltA + voltB*f
	return u * (u + 2*voltB*f)
}

func buildGuessTable() *[guessCells][4]float64 {
	h := 1 / guessInvH
	var f, m [guessCells + 1]float64 // root and df/dc at each cell boundary
	for k := range f {
		c := guessC0 + float64(k)*h
		x := MinFreqGHz + (MaxFreqGHz-MinFreqGHz)*float64(k)/guessCells
		for i := 0; i < 64; i++ {
			d := (cubic(x) - c) / cubicSlope(x)
			x -= d
			if math.Abs(d) <= 1e-15 {
				break
			}
		}
		f[k], m[k] = x, 1/cubicSlope(x)
	}
	var t [guessCells][4]float64
	for k := range t {
		df := f[k+1] - f[k]
		t[k] = [4]float64{f[k], h * m[k], 3*df - h*(2*m[k]+m[k+1]), -2*df + h*(m[k]+m[k+1])}
	}
	return &t
}

// freqGuess evaluates the table at c. A c outside the ladder's range (by a
// rounding, or a NaN) uses the nearest end cell; NaN propagates.
func freqGuess(c float64) float64 {
	x := (c - guessC0) * guessInvH
	k := 0
	if x >= 1 {
		k = min(int(x), guessCells-1)
	}
	t := x - float64(k)
	p := &guessPoly[k]
	return ((p[3]*t+p[2])*t+p[1])*t + p[0]
}

// FreqAtPower inverts Total at the inverter's operating point.
//
// Contract. Every float operation in totalAt is monotone non-decreasing in
// f, so {f : Total(f) ≤ budget} is a prefix of the float64s in [Min, Max]
// and the result is its largest element — the unique f with
//
//	Total(f) ≤ budgetW  and  (f == MaxFreqGHz or Total(nextUp(f)) > budgetW),
//
// which is exactly what bisecting [Min, Max] down to adjacent floats
// returns, so the method used to reach it cannot change a bit of the
// answer. A budget below Total(MinFreqGHz), −Inf included, is an error; a
// budget at or above Total(MaxFreqGHz), +Inf included, gives MaxFreqGHz. A
// NaN budget fails every comparison: it passes both range checks, then
// every probe shrinks the bracket from the top, and the result is
// MinFreqGHz, nil. Work is bounded for every float64 input: newtonSteps
// divisions, polishUlps probes, and the bisection of whatever bracket is
// left (under 64 halvings of [Min, Max]).
func (v *FreqInverter) FreqAtPower(budgetW float64) (float64, error) {
	if v.minW > budgetW {
		return 0, fmt.Errorf("power: budget %.3f W below minimum-frequency power %.3f W",
			budgetW, v.minW)
	}
	if v.maxW <= budgetW {
		return MaxFreqGHz, nil
	}

	// Real-valued solve of (voltA + voltB·f)²·f = c, from the table's
	// guess: one Newton step lands on the root and confirms it.
	c := budgetW * v.invK
	f := freqGuess(c)
	for i := 0; i < newtonSteps; i++ {
		u := voltA + voltB*f
		d := (u*u*f - c) / (u * (u + 2*voltB*f))
		f -= d
		if math.Abs(d) <= newtonTol {
			break
		}
	}

	// Polish to the float fixed point, holding Total(lo) ≤ budget < Total(hi).
	lo, hi := MinFreqGHz, MaxFreqGHz
	switch {
	case !(f > lo): // also a NaN solve, from a NaN budget
		f = lo
	case f >= hi:
		f = math.Nextafter(hi, lo)
	}
	if v.m.totalAt(f, v.activity, v.frac) <= budgetW {
		lo = f
		for i := 0; i < polishUlps; i++ {
			up := math.Nextafter(lo, hi)
			if up == hi || v.m.totalAt(up, v.activity, v.frac) > budgetW {
				return lo, nil
			}
			lo = up
		}
	} else {
		hi = f
		for i := 0; i < polishUlps; i++ {
			down := math.Nextafter(hi, lo)
			if down == lo || v.m.totalAt(down, v.activity, v.frac) <= budgetW {
				return down, nil
			}
			hi = down
		}
	}
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
		if v.m.totalAt(mid, v.activity, v.frac) <= budgetW {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
