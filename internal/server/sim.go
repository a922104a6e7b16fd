package server

import (
	"fmt"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/app"
	"rebudget/internal/cmpsim"
	"rebudget/internal/core"
	"rebudget/internal/market"
	"rebudget/internal/metrics"
	"rebudget/internal/snapshot"
	"rebudget/internal/workload"
)

// simEngine serves execution-driven sessions: a cmpsim chip stepped one
// measured epoch per request (or tick), with context switches applied
// between epochs. Like marketEngine it is single-owner: only the session
// goroutine touches it.
type simEngine struct {
	chip      *cmpsim.Chip
	names     []string
	bandwidth bool
	// journal records every applied context switch so a snapshot can
	// replay the (deterministic, seeded) run bit-identically elsewhere.
	journal []snapshot.SwitchEvent
}

// newSimEngine builds the chip, installs the server-wide equilibrium
// observer on the allocator (the chip chains its own profiler behind it),
// and runs warmup via Begin so the first StepEpoch is already measured.
func newSimEngine(spec api.SessionSpec, bundle workload.Bundle,
	observer func(rounds, bidSteps int, wall time.Duration)) (*simEngine, error) {
	mech, err := core.ParseMechanism(spec.Mechanism, spec.MinEnvyFreeness)
	if err != nil {
		return nil, err
	}
	cfg := cmpsim.DefaultConfig(len(bundle.Apps))
	cfg.BandwidthMarket = spec.Bandwidth
	cfg.Faults = faultConfig(spec)
	if s := spec.Sim; s != nil {
		if s.Seed != 0 {
			cfg.Seed = s.Seed
		}
		if s.WarmupEpochs != 0 {
			cfg.WarmupEpochs = s.WarmupEpochs
		}
		if s.ReallocEvery != 0 {
			cfg.ReallocEvery = s.ReallocEvery
		}
		if s.MaxAccessesPerCoreEpoch != 0 {
			cfg.MaxAccessesPerCoreEpoch = s.MaxAccessesPerCoreEpoch
		}
	}
	chip, err := cmpsim.NewChip(cfg, bundle)
	if err != nil {
		return nil, err
	}
	// No core.Resilient here: the chip's own degraded-mode state machine
	// must see every allocation failure (validate refuses resilient: true).
	alloc := core.WithMarketConfig(mech, func(mc market.Config) market.Config {
		mc.Observer = observer
		return mc
	})
	if err := chip.Begin(alloc); err != nil {
		return nil, err
	}
	e := &simEngine{chip: chip, bandwidth: spec.Bandwidth}
	for i, a := range bundle.Apps {
		e.names = append(e.names, fmt.Sprintf("%s#%d", a.Name, i))
	}
	return e, nil
}

// step advances one measured epoch on the chip. Allocation faults are
// absorbed by the chip's degraded-mode state machine, so an error here is a
// construction bug, not a runtime fault.
func (e *simEngine) step() error {
	return e.chip.StepEpoch()
}

// telemetry applies context switches (§4.3) between epochs.
func (e *simEngine) telemetry(t api.TelemetrySpec) error {
	if len(t.Players) > 0 {
		return fmt.Errorf("sim sessions take context switches, not player telemetry")
	}
	for _, sw := range t.Switches {
		spec, err := app.Lookup(sw.App)
		if err != nil {
			return err
		}
		if err := e.chip.SwitchApp(sw.Core, spec); err != nil {
			return err
		}
		e.names[sw.Core] = fmt.Sprintf("%s#%d", spec.Name, sw.Core)
		e.journal = append(e.journal, snapshot.SwitchEvent{
			AfterEpoch: e.chip.Stepped(), Core: sw.Core, App: sw.App,
		})
	}
	return nil
}

// snapshot fills the sim side of a session snapshot: the measured epoch
// count plus the context-switch journal. Called only after the owning
// session loop has exited.
func (e *simEngine) snapshot(snap *snapshot.Session) {
	snap.Sim = &snapshot.Sim{
		Epochs:   e.chip.Stepped(),
		Switches: append([]snapshot.SwitchEvent(nil), e.journal...),
	}
}

// restore replays a snapshot on a freshly built (warmed-up, unstepped)
// chip: step measured epochs in order, applying journalled context
// switches at the exact epoch boundaries they originally landed on. The
// chip is seeded and deterministic, so the replayed state — cache stacks,
// thermal history, degradation FSM, warm equilibrium bids — is
// bit-identical to the uninterrupted run's.
func (e *simEngine) restore(snap *snapshot.Session) error {
	s := snap.Sim
	if s == nil {
		return fmt.Errorf("snapshot for sim session has no sim state")
	}
	if s.Epochs < 0 {
		return fmt.Errorf("snapshot sim epochs %d < 0", s.Epochs)
	}
	next := 0
	apply := func() error {
		for next < len(s.Switches) && s.Switches[next].AfterEpoch <= e.chip.Stepped() {
			sw := s.Switches[next]
			if err := e.telemetry(api.TelemetrySpec{Switches: []api.SwitchSpec{{Core: sw.Core, App: sw.App}}}); err != nil {
				return fmt.Errorf("replaying switch at epoch %d: %w", sw.AfterEpoch, err)
			}
			next++
		}
		return nil
	}
	for e.chip.Stepped() < s.Epochs {
		if err := apply(); err != nil {
			return err
		}
		if err := e.chip.StepEpoch(); err != nil {
			return fmt.Errorf("replaying epoch %d: %w", e.chip.Stepped()+1, err)
		}
	}
	return apply()
}

// view renders the chip's hardware-facing state plus the latest allocator
// outcome.
func (e *simEngine) view() api.SessionView {
	v := api.SessionView{Mode: api.ModeSim, Cores: len(e.names)}
	sv := &api.SimView{
		Epochs:         e.chip.Stepped(),
		VirtualSeconds: e.chip.Elapsed(),
		RegionTargets:  e.chip.Regions(),
		FrequenciesGHz: e.chip.Frequencies(),
		PowerBudgetsW:  e.chip.PowerBudgets(),
		Health:         healthView(e.chip.Health()),
		Equilibrium:    equilibriumView(e.chip.Equilibrium()),
	}
	if e.bandwidth {
		sv.BandwidthGBs = e.chip.BandwidthAllocations()
	}
	v.Sim = sv
	if out := e.chip.LastOutcome(); out != nil {
		v.Alloc = allocationView(e.names, out, nil)
	}
	return v
}

// result summarises the run so far (normalised performance, weighted
// speedup, envy-freeness on the latest monitored utilities).
func (e *simEngine) result() (*api.SimResultView, error) {
	res, err := e.chip.Snapshot()
	if err != nil {
		return nil, err
	}
	return &api.SimResultView{
		Mechanism:       res.Mechanism,
		NormPerf:        res.NormPerf,
		WeightedSpeedup: res.WeightedSpeedup,
		EnvyFreeness:    res.EnvyFreeness,
		MeanIterations:  res.MeanIterations,
		AvgPowerW:       res.AvgPowerW,
		MaxTempC:        res.MaxTempC,
		ThrottleEpochs:  res.ThrottleEpochs,
		Health:          healthView(res.Health),
		Equilibrium:     equilibriumView(res.Equilibrium),
	}, nil
}

// healthState reports the chip's degraded-mode FSM position.
func (e *simEngine) healthState() metrics.HealthState {
	return e.chip.Health().State
}

// cores reports the chip's core count — the N in the admission-cost prior.
func (e *simEngine) cores() int { return len(e.names) }
