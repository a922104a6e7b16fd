package cmpsim

import (
	"errors"
	"math"
	"testing"

	"rebudget/internal/app"
	"rebudget/internal/core"
	"rebudget/internal/fault"
	"rebudget/internal/metrics"
)

// TestAloneCacheDistinguishesModifiedSpecs is the regression test for the
// alone-run cache key: a custom spec reusing a catalog name with different
// model parameters must get its own reference run, not the cached one.
func TestAloneCacheDistinguishesModifiedSpecs(t *testing.T) {
	sys := NewSystemConfig(4)
	base, err := app.Lookup("mcf")
	if err != nil {
		t.Fatal(err)
	}
	a, err := alonePerfIPS(base, sys)
	if err != nil {
		t.Fatal(err)
	}
	mod := base
	mod.CPIBase *= 4 // same Name, different machine model
	b, err := alonePerfIPS(mod, sys)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("same-named specs with different CPIBase share an alone-perf entry (%g)", a)
	}
	if b >= a {
		t.Errorf("4x CPIBase should lower alone perf: %g -> %g", a, b)
	}
}

// TestMissEstDecaysWhenIdle: a core that issues nothing in an epoch must not
// keep its old miss estimate forever — it decays toward the pessimistic
// cold-start value.
func TestMissEstDecaysWhenIdle(t *testing.T) {
	chip, err := NewChip(DefaultConfig(4), smallBundle(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	// An (unrealistically) short epoch issues zero accesses on every core,
	// exercising the counts==0 path.
	chip.epochS = 1e-15
	chip.missEst[0] = 0.2
	chip.runEpoch(false)
	want := 0.2 + 0.5*(1-0.2)
	if math.Abs(chip.missEst[0]-want) > 1e-12 {
		t.Errorf("idle missEst = %g, want %g", chip.missEst[0], want)
	}
	chip.runEpoch(false)
	if chip.missEst[0] <= want {
		t.Errorf("missEst must keep decaying toward 1, got %g", chip.missEst[0])
	}
}

// brokenAllocator fails every call.
type brokenAllocator struct{}

func (brokenAllocator) Name() string { return "broken" }
func (brokenAllocator) Allocate([]float64, []core.PlayerSpec) (*core.Outcome, error) {
	return nil, errors.New("injected allocator failure")
}

// TestDegradedModeStateMachine: a permanently failing allocator must not
// abort the simulation. The pipeline degrades (pinning the last good
// allocation), periodically re-probes, and reports it all in Health.
func TestDegradedModeStateMachine(t *testing.T) {
	chip, err := NewChip(DefaultConfig(4), smallBundle(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := chip.Run(brokenAllocator{})
	if err != nil {
		t.Fatalf("broken allocator aborted the simulation: %v", err)
	}
	h := res.Health
	if h.State == metrics.Healthy {
		t.Error("pipeline still Healthy after a run of pure failures")
	}
	if h.AllocFailures < maxConsecFailures {
		t.Errorf("AllocFailures = %d, want >= %d", h.AllocFailures, maxConsecFailures)
	}
	if h.AllocFailures != h.AllocAttempts {
		t.Errorf("every attempt fails, yet failures %d != attempts %d", h.AllocFailures, h.AllocAttempts)
	}
	if h.PinnedIntervals < cooldownIntervals {
		t.Errorf("PinnedIntervals = %d, want >= %d", h.PinnedIntervals, cooldownIntervals)
	}
	if h.Transitions < 2 {
		t.Errorf("Transitions = %d, want >= 2 (degrade + re-probe)", h.Transitions)
	}
	if h.Causes[metrics.CauseAllocator] != h.AllocFailures {
		t.Errorf("untyped failures must classify as allocator: %v vs %d failures", h.Causes, h.AllocFailures)
	}
	if res.FinalOutcome != nil {
		t.Error("no allocation ever succeeded, yet a final outcome is reported")
	}
	if res.WeightedSpeedup <= 0 {
		t.Error("pinned initial allocation should still make progress")
	}
	if h.AllocFailures != h.AllocAttempts {
		t.Errorf("%d of %d allocations failed, want all", h.AllocFailures, h.AllocAttempts)
	}
}

// TestSimCompletesUnderFaults: at a 10% monitor/solver fault rate the
// detailed simulation finishes without error, the injector demonstrably
// fired, and no installed budget ever dipped below the ReBudget floor.
func TestSimCompletesUnderFaults(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Faults = fault.Config{MonitorRate: 0.1, SolverRate: 0.1, UtilityRate: 0.01, Seed: 7}
	chip, err := NewChip(cfg, smallBundle(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	mech := core.ReBudget{Step: 20}
	res, err := chip.Run(mech)
	if err != nil {
		t.Fatalf("faulty run aborted: %v", err)
	}
	if res.WeightedSpeedup <= 0 {
		t.Error("no progress under faults")
	}
	f := res.Faults
	if f.CurveFaults+f.UtilityFaults+f.SolverStalls == 0 {
		t.Error("10% fault rate fired nothing — injector not wired into the run")
	}
	if f.CurveFaults > 0 && res.Health.CurveRepairs == 0 {
		t.Error("corrupted curves were never repaired before allocation")
	}
	floor, err := mech.EffectiveMBRFloor()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalOutcome != nil {
		for i, b := range res.FinalOutcome.Budgets {
			if b < floor*core.InitialBudget-1e-9 {
				t.Errorf("player %d final budget %g below MBR floor %g", i, b, floor*core.InitialBudget)
			}
		}
	}
}
