package metrics

import "testing"

func TestHealthStrings(t *testing.T) {
	states := map[HealthState]string{
		Healthy: "healthy", Degraded: "degraded", Recovering: "recovering",
		HealthState(99): "HealthState(99)",
	}
	for s, want := range states {
		if s.String() != want {
			t.Errorf("HealthState(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
	causes := map[FailureCause]string{
		CauseMonitor: "monitor", CauseUtility: "utility",
		CauseSolver: "solver", CauseAllocator: "allocator",
		causeCount: "FailureCause(4)",
	}
	for c, want := range causes {
		if c.String() != want {
			t.Errorf("FailureCause(%d).String() = %q, want %q", int(c), c.String(), want)
		}
	}
}

func TestHealthRecordFailure(t *testing.T) {
	var h Health
	h.AllocAttempts = 4
	h.RecordFailure(CauseSolver)
	h.RecordFailure(CauseSolver)
	h.RecordFailure(CauseMonitor)
	h.RecordFailure(FailureCause(-1)) // counted, but no cause bucket
	if h.AllocFailures != 4 {
		t.Errorf("AllocFailures = %d, want 4", h.AllocFailures)
	}
	if h.Causes[CauseSolver] != 2 || h.Causes[CauseMonitor] != 1 || h.Causes[CauseUtility] != 0 {
		t.Errorf("Causes = %v", h.Causes)
	}
}

func TestHealthTransitionIgnoresSelfEdges(t *testing.T) {
	var h Health
	h.Transition(Healthy) // self edge from the zero state
	if h.Transitions != 0 {
		t.Fatalf("self transition counted: %d", h.Transitions)
	}
	h.Transition(Degraded)
	h.Transition(Degraded)
	h.Transition(Recovering)
	h.Transition(Healthy)
	if h.State != Healthy {
		t.Errorf("State = %v", h.State)
	}
	if h.Transitions != 3 {
		t.Errorf("Transitions = %d, want 3", h.Transitions)
	}
}
