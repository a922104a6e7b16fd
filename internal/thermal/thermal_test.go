package thermal

import (
	"math"
	"testing"
	"testing/quick"
)

// TestNewNodeValidation: a node takes no parameters to reject, and starts
// at ambient.
func TestNewNodeValidation(t *testing.T) {
	if n := NewNode(); n.Temp() != ambientC {
		t.Errorf("initial temperature = %g, want ambient", n.Temp())
	}
}

func TestSteadyState(t *testing.T) {
	n := NewNode()
	if got := n.SteadyState(10); math.Abs(got-80) > 1e-12 {
		t.Errorf("SteadyState(10) = %g, want 80", got)
	}
	if got := n.SteadyState(0); got != 45 {
		t.Errorf("SteadyState(0) = %g, want ambient", got)
	}
}

func TestUpdateConvergesToSteadyState(t *testing.T) {
	n := NewNode()
	want := n.SteadyState(10)
	for i := 0; i < 1000; i++ {
		n.Update(10, 0.001) // 1 s total, 10 time constants
	}
	if math.Abs(n.Temp()-want) > 0.1 {
		t.Errorf("temperature after 10τ = %g, want %g", n.Temp(), want)
	}
}

func TestUpdateMonotoneApproach(t *testing.T) {
	n := NewNode()
	prev := n.Temp()
	for i := 0; i < 100; i++ {
		cur := n.Update(10, 0.001)
		if cur < prev-1e-12 {
			t.Fatal("heating must be monotone under constant power")
		}
		prev = cur
	}
	// Now cool down.
	for i := 0; i < 100; i++ {
		cur := n.Update(0, 0.001)
		if cur > prev+1e-12 {
			t.Fatal("cooling must be monotone under zero power")
		}
		prev = cur
	}
}

func TestUpdateLargeStepStable(t *testing.T) {
	n := NewNode()
	got := n.Update(10, 1e6) // absurdly large step must not overshoot
	want := n.SteadyState(10)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("large step temp = %g, want steady state %g", got, want)
	}
}

// Property: temperature always stays between ambient and the steady state
// of the maximum applied power.
func TestTemperatureEnvelope(t *testing.T) {
	f := func(powers [20]float64, dts [20]float64) bool {
		n := NewNode()
		ambient := ambientC
		maxP := 0.0
		for i := range powers {
			p := math.Abs(math.Mod(powers[i], 15))
			dt := 1e-4 + math.Abs(math.Mod(dts[i], 0.01))
			if p > maxP {
				maxP = p
			}
			temp := n.Update(p, dt)
			if temp < ambient-1e-9 || temp > n.SteadyState(maxP)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
