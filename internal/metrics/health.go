package metrics

import "fmt"

// HealthState is the allocation pipeline's degraded-mode state machine
// position (healthy → degraded → recovering → healthy).
type HealthState int

// Pipeline health states.
const (
	// Healthy: allocations are being computed and installed normally.
	Healthy HealthState = iota
	// Degraded: repeated allocation failures pinned the last good
	// allocation; the allocator is not being probed.
	Degraded
	// Recovering: the cooldown expired and the pipeline is re-probing the
	// allocator; one more failure falls straight back to Degraded.
	Recovering
)

// String implements fmt.Stringer.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Recovering:
		return "recovering"
	default:
		return fmt.Sprintf("HealthState(%d)", int(s))
	}
}

// FailureCause classifies why an allocation attempt failed, so telemetry
// can separate broken monitors from a broken solver.
type FailureCause int

// Allocation failure causes.
const (
	// CauseMonitor: corrupted monitor readings were detected (and
	// repaired) before allocation.
	CauseMonitor FailureCause = iota
	// CauseUtility: a player utility produced a non-finite value
	// mid-equilibrium.
	CauseUtility
	// CauseSolver: the equilibrium search was stalled or ran out of its
	// iteration budget.
	CauseSolver
	// CauseAllocator: any other allocator error.
	CauseAllocator
	causeCount
)

// String implements fmt.Stringer.
func (c FailureCause) String() string {
	switch c {
	case CauseMonitor:
		return "monitor"
	case CauseUtility:
		return "utility"
	case CauseSolver:
		return "solver"
	case CauseAllocator:
		return "allocator"
	default:
		return fmt.Sprintf("FailureCause(%d)", int(c))
	}
}

// Health is the pipeline's self-diagnosis telemetry: where the degraded-mode
// state machine is, how it got there, and how much work ran in each mode.
type Health struct {
	// State is the current position of the state machine.
	State HealthState
	// AllocAttempts counts reallocation intervals where the allocator was
	// actually probed (Healthy and Recovering states).
	AllocAttempts int
	// AllocFailures counts probes that returned an error.
	AllocFailures int
	// CurveRepairs counts monitor curves that needed sanitization before
	// they could be used.
	CurveRepairs int
	// NonConverged counts equilibria accepted via the §6.4 fail-safe
	// (best-effort state installed after the iteration budget ran out).
	NonConverged int
	// PinnedIntervals counts reallocation intervals served by the pinned
	// last-good allocation while Degraded.
	PinnedIntervals int
	// Transitions counts state-machine transitions (any edge).
	Transitions int
	// Causes counts failures by classified cause, indexed by FailureCause.
	Causes [causeCount]int
}

// RecordFailure counts a failed allocation attempt with its cause.
func (h *Health) RecordFailure(c FailureCause) {
	h.AllocFailures++
	if c >= 0 && c < causeCount {
		h.Causes[c]++
	}
}

// Transition moves the state machine, counting the edge. Self-transitions
// are ignored so callers can set the target state unconditionally.
func (h *Health) Transition(to HealthState) {
	if h.State == to {
		return
	}
	h.State = to
	h.Transitions++
}
