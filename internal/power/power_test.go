package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLevels(t *testing.T) {
	ls := Levels()
	if len(ls) != 9 {
		t.Fatalf("expected 9 DVFS levels, got %d: %v", len(ls), ls)
	}
	if ls[0] != 0.8 || ls[len(ls)-1] != 4.0 {
		t.Errorf("ladder endpoints wrong: %v", ls)
	}
	for i := 1; i < len(ls); i++ {
		if math.Abs(ls[i]-ls[i-1]-0.4) > 1e-9 {
			t.Errorf("ladder step wrong between %g and %g", ls[i-1], ls[i])
		}
	}
}

func TestVoltage(t *testing.T) {
	if Voltage(0.8) != 0.8 || Voltage(4.0) != 1.2 {
		t.Error("voltage endpoints wrong")
	}
	if Voltage(0.1) != 0.8 || Voltage(9) != 1.2 {
		t.Error("voltage should clamp outside the ladder")
	}
	mid := Voltage(2.4)
	if math.Abs(mid-1.0) > 1e-9 {
		t.Errorf("Voltage(2.4) = %g, want 1.0", mid)
	}
}

func TestDynamicPowerScaling(t *testing.T) {
	m := DefaultModel()
	// Power strictly increases with frequency (V also rises).
	prev := 0.0
	for _, f := range Levels() {
		p := m.Total(f, 1, 70) - m.Total(f, 0, 70)
		if p <= prev {
			t.Errorf("dynamic power not increasing at %g GHz", f)
		}
		prev = p
	}
	// Activity scales linearly.
	static := m.Total(2.0, 0, 70)
	if math.Abs(m.Total(2.0, 0.5, 70)-static-0.5*(m.Total(2.0, 1, 70)-static)) > 1e-12 {
		t.Error("activity should scale dynamic power linearly")
	}
}

func TestDefaultModelPowerScarcity(t *testing.T) {
	m := DefaultModel()
	// Full throttle must exceed the per-core TDP share (≈1.5×), so the
	// chip power budget actually constrains frequency choices.
	p := m.Total(MaxFreqGHz, 1, 70)
	if p < 1.4*TDPPerCoreW || p > 2.0*TDPPerCoreW {
		t.Errorf("full-throttle power = %.2f W, want ≈1.9× the %g W TDP share", p, TDPPerCoreW)
	}
	// Minimum frequency power must be well below an equal share of TDP so
	// the free minimum allocation (§4.1) is always affordable.
	pmin := m.Total(MinFreqGHz, 1, 70)
	if pmin > 2.0 {
		t.Errorf("min-frequency power = %.2f W, too high for the free floor", pmin)
	}
}

func TestStaticPowerTemperatureDependence(t *testing.T) {
	m := DefaultModel()
	// At zero activity Total is the leakage alone.
	cold := m.Total(4.0, 0, 40)
	hot := m.Total(4.0, 0, 90)
	if hot <= cold {
		t.Error("leakage must grow with temperature")
	}
	ratio := hot / cold
	want := math.Exp((90.0 - 40.0) / m.TempScaleC)
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("leakage ratio = %g, want %g", ratio, want)
	}
}

func TestFreqAtPowerInvertsTotal(t *testing.T) {
	m := DefaultModel()
	for _, f := range []float64{0.9, 1.7, 2.5, 3.3, 3.9} {
		budget := m.Total(f, 0.8, 65)
		got, err := m.FreqAtPower(budget, 0.8, 65)
		if err != nil {
			t.Fatalf("FreqAtPower(%g): %v", budget, err)
		}
		if math.Abs(got-f) > 1e-6 {
			t.Errorf("FreqAtPower inverse = %g, want %g", got, f)
		}
	}
}

func TestFreqAtPowerBounds(t *testing.T) {
	m := DefaultModel()
	if _, err := m.FreqAtPower(0.01, 1, 70); err == nil {
		t.Error("impossible budget accepted")
	}
	got, err := m.FreqAtPower(1000, 1, 70)
	if err != nil || got != MaxFreqGHz {
		t.Errorf("huge budget should give max frequency, got %g err %v", got, err)
	}
}

// Property: FreqAtPower result's power never exceeds the budget, and a
// higher budget never yields a lower frequency.
func TestFreqAtPowerProperties(t *testing.T) {
	m := DefaultModel()
	f := func(b1, b2, act, temp float64) bool {
		act = 0.2 + math.Abs(math.Mod(act, 0.8))
		temp = 40 + math.Abs(math.Mod(temp, 50))
		floor := m.Total(MinFreqGHz, act, temp)
		b1 = floor + math.Abs(math.Mod(b1, 12))
		b2 = floor + math.Abs(math.Mod(b2, 12))
		if b1 > b2 {
			b1, b2 = b2, b1
		}
		f1, err1 := m.FreqAtPower(b1, act, temp)
		f2, err2 := m.FreqAtPower(b2, act, temp)
		if err1 != nil || err2 != nil {
			return false
		}
		if m.Total(f1, act, temp) > b1+1e-6 {
			return false
		}
		return f1 <= f2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// checkInversion asserts the fixed-point contract of FreqAtPower for one
// in-range query — f is the largest float64 on the ladder whose Total does
// not exceed the budget — and that the one-shot Model.FreqAtPower agrees
// with the inverter bit for bit. The defining inequality is the oracle: no
// second implementation is kept to compare against.
func checkInversion(t *testing.T, m Model, inv *FreqInverter, budget, act, temp float64) float64 {
	t.Helper()
	f, err := inv.FreqAtPower(budget)
	if err != nil {
		t.Fatalf("FreqAtPower(%v) at act=%v T=%v: %v", budget, act, temp, err)
	}
	if f < MinFreqGHz || f > MaxFreqGHz {
		t.Fatalf("FreqAtPower(%v) at act=%v T=%v = %v, outside the ladder", budget, act, temp, f)
	}
	if got := m.Total(f, act, temp); got > budget {
		t.Fatalf("act=%v T=%v budget=%v: Total(%v) = %v exceeds the budget", act, temp, budget, f, got)
	}
	if f != MaxFreqGHz {
		up := math.Nextafter(f, math.Inf(1))
		if got := m.Total(up, act, temp); got <= budget {
			t.Fatalf("act=%v T=%v budget=%v: %v is not the largest fit, Total(nextUp) = %v", act, temp, budget, f, got)
		}
	}
	if g, err := m.FreqAtPower(budget, act, temp); err != nil || g != f {
		t.Fatalf("act=%v T=%v budget=%v: Model.FreqAtPower = %v, %v; inverter = %v", act, temp, budget, g, err, f)
	}
	return f
}

// Property: the fixed-point contract, inverter ≡ one-shot, and monotonicity
// in the budget, over seeded random operating points and budgets.
func TestFreqAtPowerContractRandom(t *testing.T) {
	m := DefaultModel()
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 200000; i++ {
		act := 0.2 + 0.8*r.Float64()
		temp := 70.0 // the utility model's reference point
		if i%2 == 1 {
			temp = 40 + 50*r.Float64()
		}
		inv := m.NewFreqInverter(act, temp)
		minW, maxW := m.Total(MinFreqGHz, act, temp), m.Total(MaxFreqGHz, act, temp)
		b1 := minW + (maxW-minW)*r.Float64()
		b2 := minW + (maxW-minW)*r.Float64()
		if b1 > b2 {
			b1, b2 = b2, b1
		}
		f1 := checkInversion(t, m, inv, b1, act, temp)
		f2 := checkInversion(t, m, inv, b2, act, temp)
		if f1 > f2 {
			t.Fatalf("act=%v T=%v: budget %v → %v but larger budget %v → %v", act, temp, b1, f1, b2, f2)
		}
	}
}

// The edges of the contract: both ends of the DVFS range, budgets exactly at
// and one ulp either side of a ladder level's power, and the non-finite
// budgets a poisoned utility or a corrupted monitor curve can produce.
func TestFreqAtPowerContractEdges(t *testing.T) {
	m := DefaultModel()
	for _, op := range []struct{ act, temp float64 }{{0.8, 70}, {1, 70}, {0.2, 40}, {0.55, 90}, {0.37, 63.5}} {
		act, temp := op.act, op.temp
		inv := m.NewFreqInverter(act, temp)
		minW, maxW := m.Total(MinFreqGHz, act, temp), m.Total(MaxFreqGHz, act, temp)

		checkInversion(t, m, inv, minW, act, temp)
		checkInversion(t, m, inv, math.Nextafter(maxW, 0), act, temp)
		for _, b := range []float64{maxW, math.Nextafter(maxW, math.Inf(1)), math.Inf(1)} {
			if f := checkInversion(t, m, inv, b, act, temp); f != MaxFreqGHz {
				t.Errorf("budget %v ≥ maxW gave %v, want MaxFreqGHz", b, f)
			}
		}
		for _, b := range []float64{math.Nextafter(minW, 0), 0, math.Inf(-1)} {
			if _, err := inv.FreqAtPower(b); err == nil {
				t.Errorf("inverter accepted budget %v below minW %v", b, minW)
			}
			if _, err := m.FreqAtPower(b, act, temp); err == nil {
				t.Errorf("Model.FreqAtPower accepted budget %v below minW %v", b, minW)
			}
		}
		// NaN passes both range checks (every comparison is false) and must
		// come back — in bounded work — as the bottom of the ladder.
		if f, err := inv.FreqAtPower(math.NaN()); err != nil || f != MinFreqGHz {
			t.Errorf("inverter on NaN budget = %v, %v; want MinFreqGHz, nil", f, err)
		}
		if f, err := m.FreqAtPower(math.NaN(), act, temp); err != nil || f != MinFreqGHz {
			t.Errorf("Model.FreqAtPower on NaN budget = %v, %v; want MinFreqGHz, nil", f, err)
		}

		for _, level := range Levels()[1:8] {
			at := m.Total(level, act, temp)
			if f := checkInversion(t, m, inv, at, act, temp); f < level {
				t.Errorf("budget Total(%v) gave %v, below the level", level, f)
			}
			if f := checkInversion(t, m, inv, math.Nextafter(at, 0), act, temp); f >= level {
				t.Errorf("budget one ulp under Total(%v) gave %v", level, f)
			}
			checkInversion(t, m, inv, math.Nextafter(at, math.Inf(1)), act, temp)
		}
	}
}

// The table's starting guess must sit within newtonTol of the cubic's root
// everywhere on the ladder, so that the first Newton step is also the last:
// that, not the answer (which the polish fixes regardless), is what the
// table buys.
func TestFreqGuessError(t *testing.T) {
	worst := 0.0
	const points = 100000
	for i := 0; i <= points; i++ {
		f := MinFreqGHz + (MaxFreqGHz-MinFreqGHz)*float64(i)/points
		if e := math.Abs(freqGuess(cubic(f)) - f); e > worst {
			worst = e
		}
	}
	t.Logf("worst guess error over %d points: %.3g GHz", points+1, worst)
	if worst > newtonTol {
		t.Errorf("worst guess error %.3g GHz exceeds newtonTol %.3g: the solve needs a second Newton step", worst, newtonTol)
	}
	// One step past either end of the table still lands in an end cell.
	for _, c := range []float64{math.Nextafter(guessC0, 0), math.Nextafter(cubic(MaxFreqGHz), 10)} {
		if f := freqGuess(c); !(f > MinFreqGHz-1e-6 && f < MaxFreqGHz+1e-6) {
			t.Errorf("freqGuess(%v) = %v, outside the ladder", c, f)
		}
	}
	if f := freqGuess(math.NaN()); !math.IsNaN(f) {
		t.Errorf("freqGuess(NaN) = %v, want NaN", f)
	}
}

// The inversion sits inside every utility evaluation: it must not allocate,
// through the inverter or through the one-shot form.
func TestFreqAtPowerAllocs(t *testing.T) {
	m := DefaultModel()
	inv := m.NewFreqInverter(0.8, 70)
	budgets := []float64{m.Total(1.3, 0.8, 70), m.Total(3.7, 0.8, 70), math.NaN(), math.Inf(1)}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		inv.FreqAtPower(budgets[i%len(budgets)])
		m.FreqAtPower(budgets[i%len(budgets)], 0.8, 55)
		i++
	}); n != 0 {
		t.Errorf("inversion allocates %v times per call", n)
	}
}

var freqSink float64

// BenchmarkFreqAtPower steps the budget every call, the way the market's
// watts probes do.
func BenchmarkFreqAtPower(b *testing.B) {
	m := DefaultModel()
	inv := m.NewFreqInverter(0.8, 70)
	minW, maxW := m.Total(MinFreqGHz, 0.8, 70), m.Total(MaxFreqGHz, 0.8, 70)
	step := (maxW - minW) / 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		freqSink, _ = inv.FreqAtPower(minW + float64(i%1024)*step)
	}
}
