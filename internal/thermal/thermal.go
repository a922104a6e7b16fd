// Package thermal provides a first-order lumped RC thermal model per core,
// standing in for the HotSpot simulator the paper integrates with SESC. The
// market mechanism only consumes temperature through the static-power
// feedback loop, so a single-node RC network per core (die-to-ambient
// resistance plus thermal capacitance) preserves the relevant behaviour:
// temperature rises with sustained power, decays toward ambient, and feeds
// leakage back into the power model.
package thermal

import "math"

// The RC node models a 65 nm core under a conventional heat sink: 10 W of
// sustained power settles ≈35 °C above ambient within a few hundred ms.
const (
	ambientC      = 45.0 // ambient/heat-sink temperature
	resistanceCW  = 3.5  // junction-to-ambient thermal resistance (°C/W)
	timeConstantS = 0.1  // RC time constant
)

// Node is one core's thermal state.
type Node struct {
	temp float64
}

// NewNode returns a node at ambient temperature.
func NewNode() *Node { return &Node{temp: ambientC} }

// Temp returns the current junction temperature in °C.
func (n *Node) Temp() float64 { return n.temp }

// SteadyState returns the settled temperature under constant power.
func (n *Node) SteadyState(powerW float64) float64 {
	return ambientC + powerW*resistanceCW
}

// Update advances the node by dt seconds under the given power draw and
// returns the new temperature. It uses the exact exponential solution of
// the first-order ODE, so arbitrarily large dt steps remain stable.
func (n *Node) Update(powerW, dt float64) float64 {
	target := n.SteadyState(powerW)
	alpha := 1 - math.Exp(-dt/timeConstantS)
	n.temp += (target - n.temp) * alpha
	return n.temp
}
