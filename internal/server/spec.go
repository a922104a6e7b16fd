// Package server is the allocation-as-a-service layer: a multi-tenant HTTP
// daemon (cmd/rebudgetd) hosting many concurrent chip sessions. Each session
// owns an allocation mechanism — optionally core.Resilient-hardened — over
// either the analytic market (§6 phase 1) or the execution-driven cmpsim
// chip (§6.3 phase 2), re-allocating once per requested (or ticker-driven)
// epoch with warm-started equilibria, exactly how §4.3 schedules ReBudget
// off the APIC timer. Concurrent allocation work across sessions is
// coalesced onto a bounded dispatcher with backpressure, and the whole
// thing is observable through /metrics (Prometheus text format) and
// /healthz. See DESIGN.md, "Serving layer".
package server

import (
	"fmt"
	"strings"

	"rebudget/internal/api"
	"rebudget/internal/app"
	"rebudget/internal/core"
	"rebudget/internal/fault"
	"rebudget/internal/numeric"
	"rebudget/internal/workload"
)

// validTenantPath checks a tenant label: one or more id-shaped segments
// joined by "/".
func validTenantPath(p string) bool {
	for _, seg := range strings.Split(p, "/") {
		if !api.ValidID(seg) {
			return false
		}
	}
	return true
}

// maxCores bounds a session's chip: 4× the paper's 64-core evaluation, so
// one create cannot make the daemon build an arbitrarily large bundle.
const maxCores = 256

// validate refuses a create body the daemon cannot serve.
func validate(s api.SessionSpec) error {
	if s.ID != "" && !api.ValidID(s.ID) {
		return fmt.Errorf("session id %q must match %s", s.ID, api.IDPattern)
	}
	if s.Tenant != "" && !validTenantPath(s.Tenant) {
		return fmt.Errorf("tenant %q must be %s segments joined by \"/\"", s.Tenant, api.IDPattern)
	}
	switch s.Mode {
	case "", api.ModeMarket, api.ModeSim:
	default:
		return fmt.Errorf("unknown mode %q (want %q or %q)", s.Mode, api.ModeMarket, api.ModeSim)
	}
	if s.TickerMillis < 0 {
		return fmt.Errorf("ticker_ms %d must be >= 0", s.TickerMillis)
	}
	if s.Workload.Cores > maxCores || len(s.Workload.Apps) > maxCores {
		return fmt.Errorf("workload of %d cores (%d apps) exceeds %d cores",
			s.Workload.Cores, len(s.Workload.Apps), maxCores)
	}
	// Parsed here only to refuse a bad mechanism with a 400 before any
	// admission work; the value is discarded. A session carries its spec,
	// not its allocator, and its engine is rebuilt from that spec on create
	// and on every rehydration from a snapshot (which never passes through
	// validate), so the engine constructors parse it themselves.
	if _, err := core.ParseMechanism(s.Mechanism, s.MinEnvyFreeness); err != nil {
		return err
	}
	if s.Sim != nil && s.Sim.Faults != nil {
		f := s.Sim.Faults
		for _, r := range []float64{f.MonitorRate, f.UtilityRate, f.SolverRate} {
			if r < 0 || r >= 1 {
				return fmt.Errorf("fault rate %g outside [0,1)", r)
			}
		}
	}
	return nil
}

// guessCores estimates the session's core count from the spec alone —
// enough to seed the admission-cost prior before the bundle exists (the
// engine's actual count recalibrates it after construction).
func guessCores(s api.SessionSpec) int {
	switch {
	case len(s.Workload.Apps) > 0:
		return len(s.Workload.Apps)
	case s.Workload.Cores > 0:
		return s.Workload.Cores
	default:
		// Figure 3 is the 8-core CPBB bundle; a bare category also
		// defaults to 8 cores in buildBundle.
		return 8
	}
}

// mode is the session's engine, ModeMarket when the spec names none.
func mode(s api.SessionSpec) string {
	if s.Mode == "" {
		return api.ModeMarket
	}
	return s.Mode
}

// resilient reports whether the mechanism runs under core.Resilient: by
// default in market mode only.
func resilient(s api.SessionSpec) bool {
	if s.Resilient != nil {
		return *s.Resilient
	}
	return mode(s) == api.ModeMarket
}

// warmStart reports whether market epochs re-converge from the last one.
func warmStart(s api.SessionSpec) bool {
	return s.WarmStart == nil || *s.WarmStart
}

// faultConfig is the sim spec's fault injection, off when absent.
func faultConfig(s api.SessionSpec) fault.Config {
	if s.Sim == nil || s.Sim.Faults == nil {
		return fault.Config{}
	}
	f := s.Sim.Faults
	return fault.Config{
		MonitorRate: f.MonitorRate,
		UtilityRate: f.UtilityRate,
		SolverRate:  f.SolverRate,
		Seed:        f.Seed,
	}
}

// buildBundle materialises the workload selection.
func buildBundle(w api.WorkloadSpec) (workload.Bundle, error) {
	switch {
	case w.Fig3:
		return workload.Figure3Bundle()
	case len(w.Apps) > 0:
		b := workload.Bundle{Category: workload.Category(w.Category)}
		for _, name := range w.Apps {
			spec, err := app.Lookup(name)
			if err != nil {
				return workload.Bundle{}, err
			}
			b.Apps = append(b.Apps, spec)
		}
		return b, nil
	default:
		if w.Category == "" {
			return workload.Bundle{}, fmt.Errorf("workload needs fig3, apps, or a category")
		}
		cores := w.Cores
		if cores == 0 {
			cores = 8
		}
		seed := w.Seed
		if seed == 0 {
			seed = 1
		}
		return workload.Generate(workload.Category(w.Category), cores, numeric.NewRand(seed))
	}
}

// finitePtr returns a pointer to v, or nil when v is NaN/Inf — JSON cannot
// carry non-finite floats, and "absent" is the honest encoding of "not
// applicable".
func finitePtr(v float64) *float64 {
	if v != v || v > 1e308 || v < -1e308 {
		return nil
	}
	return &v
}
