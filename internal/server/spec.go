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
	"regexp"
	"strings"
	"time"

	"rebudget/internal/app"
	"rebudget/internal/core"
	"rebudget/internal/fault"
	"rebudget/internal/numeric"
	"rebudget/internal/workload"
)

// SessionSpec is the client-supplied description of a new chip session.
type SessionSpec struct {
	// ID optionally names the session ([A-Za-z0-9_-], ≤64 chars); the
	// server generates one when empty.
	ID string `json:"id,omitempty"`
	// Tenant labels the session with a tenant path ("acme" or
	// "acme/prod": [A-Za-z0-9_-] segments joined by "/"). When the daemon
	// runs the tenant budget economy (Config.Tenancy), the label selects
	// whose cost sub-budget admits this session's work; unknown tenants
	// self-register with default share and floor, and an empty label
	// falls back to the X-Rebudget-Tenant header, then the configured
	// default tenant. Without tenancy the label is carried and reported
	// but gates nothing.
	Tenant string `json:"tenant,omitempty"`
	// Workload selects the bundle the session allocates for.
	Workload WorkloadSpec `json:"workload"`
	// Mechanism is the allocator, in cmd/marketsim syntax: equalshare,
	// equalbudget, balanced, maxefficiency, rebudget-<step>, or rebudget
	// (which requires MinEnvyFreeness).
	Mechanism string `json:"mechanism"`
	// MinEnvyFreeness is the Theorem 2 fairness knob for "rebudget".
	MinEnvyFreeness float64 `json:"min_ef,omitempty"`
	// Mode selects the session engine: "market" (default) re-solves the
	// analytic market each epoch; "sim" steps the execution-driven cmpsim
	// chip, re-allocating on its ReallocEvery cadence.
	Mode string `json:"mode,omitempty"`
	// Bandwidth adds memory bandwidth as a third market resource.
	Bandwidth bool `json:"bandwidth,omitempty"`
	// Resilient wraps the mechanism in the core.Resilient fallback chain.
	// Defaults to true in market mode; in sim mode the chip's own
	// degraded-mode state machine plays that role, so it defaults to false.
	Resilient *bool `json:"resilient,omitempty"`
	// WarmStart (market mode, default true) threads each epoch's final bid
	// matrix into the next epoch's equilibrium via market.FindEquilibriumFrom,
	// so steady-state epochs re-converge from the previous one.
	WarmStart *bool `json:"warm_start,omitempty"`
	// TickerMillis, when positive, drives epochs from a server-side ticker
	// at this wall-clock period instead of (only) client POSTs. Ticks that
	// hit dispatcher backpressure are dropped and counted.
	TickerMillis int `json:"ticker_ms,omitempty"`
	// Sim tunes the cmpsim engine; ignored in market mode.
	Sim *SimSpec `json:"sim,omitempty"`
}

// WorkloadSpec selects the session's bundle: the paper's Figure 3 bundle,
// an explicit application list (one per core), or a seeded random draw from
// a §5 category.
type WorkloadSpec struct {
	Category string   `json:"category,omitempty"`
	Cores    int      `json:"cores,omitempty"`
	Seed     uint64   `json:"seed,omitempty"`
	Fig3     bool     `json:"fig3,omitempty"`
	Apps     []string `json:"apps,omitempty"`
}

// SimSpec tunes a sim-mode session's chip.
type SimSpec struct {
	Seed                    uint64     `json:"seed,omitempty"`
	WarmupEpochs            int        `json:"warmup_epochs,omitempty"`
	ReallocEvery            int        `json:"realloc_every,omitempty"`
	MaxAccessesPerCoreEpoch int        `json:"max_accesses_per_core_epoch,omitempty"`
	Faults                  *FaultSpec `json:"faults,omitempty"`
}

// FaultSpec enables deterministic fault injection in a sim session.
type FaultSpec struct {
	MonitorRate float64 `json:"monitor_rate,omitempty"`
	UtilityRate float64 `json:"utility_rate,omitempty"`
	SolverRate  float64 `json:"solver_rate,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
}

// TelemetrySpec is per-epoch monitor input POSTed between epochs. Market
// sessions accept per-player demand multipliers (a phase change scaling the
// utility surface) and budget weights; sim sessions accept context switches
// (§4.3), applied just before the next stepped epoch.
type TelemetrySpec struct {
	Players  []PlayerTelemetry `json:"players,omitempty"`
	Switches []SwitchSpec      `json:"switches,omitempty"`
}

// PlayerTelemetry updates one market player's monitored state.
type PlayerTelemetry struct {
	Player int `json:"player"`
	// Demand scales the player's utility surface (>0; 1 restores the
	// profiled baseline). Zero means "leave unchanged".
	Demand float64 `json:"demand,omitempty"`
	// Weight sets the player's budget weight (§5 coalitions). Zero means
	// "leave unchanged".
	Weight float64 `json:"weight,omitempty"`
}

// SwitchSpec schedules a context switch on a sim session.
type SwitchSpec struct {
	Core int    `json:"core"`
	App  string `json:"app"`
}

var idPattern = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// validTenantPath checks a tenant label: one or more id-shaped segments
// joined by "/".
func validTenantPath(p string) bool {
	for _, seg := range strings.Split(p, "/") {
		if !idPattern.MatchString(seg) {
			return false
		}
	}
	return true
}

// maxCores bounds a session's chip: 4× the paper's 64-core evaluation, so
// one create cannot make the daemon build an arbitrarily large bundle.
const maxCores = 256

func (s SessionSpec) validate() error {
	if s.ID != "" && !idPattern.MatchString(s.ID) {
		return fmt.Errorf("session id %q must match %s", s.ID, idPattern)
	}
	if s.Tenant != "" && !validTenantPath(s.Tenant) {
		return fmt.Errorf("tenant %q must be %s segments joined by \"/\"", s.Tenant, idPattern)
	}
	switch s.Mode {
	case "", ModeMarket, ModeSim:
	default:
		return fmt.Errorf("unknown mode %q (want %q or %q)", s.Mode, ModeMarket, ModeSim)
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

// Session modes.
const (
	ModeMarket = "market"
	ModeSim    = "sim"
)

// guessCores estimates the session's core count from the spec alone —
// enough to seed the admission-cost prior before the bundle exists (the
// engine's actual count recalibrates it after construction).
func (s SessionSpec) guessCores() int {
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

func (s SessionSpec) mode() string {
	if s.Mode == "" {
		return ModeMarket
	}
	return s.Mode
}

func (s SessionSpec) resilient() bool {
	if s.Resilient != nil {
		return *s.Resilient
	}
	return s.mode() == ModeMarket
}

func (s SessionSpec) warmStart() bool {
	return s.WarmStart == nil || *s.WarmStart
}

func (s SessionSpec) faultConfig() fault.Config {
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
func buildBundle(w WorkloadSpec) (workload.Bundle, error) {
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

// --- views (the JSON the daemon serves) ---

// SessionView is the client-visible state of a session.
type SessionView struct {
	ID        string          `json:"id"`
	Tenant    string          `json:"tenant,omitempty"`
	Mode      string          `json:"mode"`
	Mechanism string          `json:"mechanism"`
	Category  string          `json:"category,omitempty"`
	Cores     int             `json:"cores"`
	Epochs    int64           `json:"epochs"`
	Health    string          `json:"health"`
	CreatedAt time.Time       `json:"created_at"`
	LastUsed  time.Time       `json:"last_used"`
	LastError string          `json:"last_error,omitempty"`
	Alloc     *AllocationView `json:"allocation,omitempty"`
	Sim       *SimView        `json:"sim,omitempty"`
}

// AllocationView is the latest allocator outcome: the current allocation,
// budgets, MUR/MBR and the theory bounds they imply.
type AllocationView struct {
	Players         []string    `json:"players"`
	Allocations     [][]float64 `json:"allocations"`
	Budgets         []float64   `json:"budgets,omitempty"`
	Utilities       []float64   `json:"utilities"`
	Lambdas         []float64   `json:"lambdas,omitempty"`
	MUR             *float64    `json:"mur,omitempty"`
	MBR             *float64    `json:"mbr,omitempty"`
	PoABound        *float64    `json:"poa_bound,omitempty"`
	EFBound         *float64    `json:"ef_bound,omitempty"`
	Efficiency      float64     `json:"efficiency"`
	EnvyFreeness    *float64    `json:"envy_freeness,omitempty"`
	Iterations      int         `json:"iterations"`
	EquilibriumRuns int         `json:"equilibrium_runs"`
	Converged       bool        `json:"converged"`
}

// SimView is the hardware-facing state of a sim session.
type SimView struct {
	Epochs         int             `json:"epochs"`
	VirtualSeconds float64         `json:"virtual_seconds"`
	RegionTargets  []float64       `json:"region_targets"`
	FrequenciesGHz []float64       `json:"frequencies_ghz"`
	PowerBudgetsW  []float64       `json:"power_budgets_w"`
	BandwidthGBs   []float64       `json:"bandwidth_gbs,omitempty"`
	Health         HealthView      `json:"health"`
	Equilibrium    EquilibriumView `json:"equilibrium"`
}

// HealthView mirrors metrics.Health for JSON.
type HealthView struct {
	State           string `json:"state"`
	AllocAttempts   int    `json:"alloc_attempts"`
	AllocFailures   int    `json:"alloc_failures"`
	CurveRepairs    int    `json:"curve_repairs"`
	NonConverged    int    `json:"non_converged"`
	PinnedIntervals int    `json:"pinned_intervals"`
	Transitions     int    `json:"transitions"`
}

// EquilibriumView mirrors metrics.EquilibriumStats for JSON.
type EquilibriumView struct {
	Runs        int64   `json:"runs"`
	Rounds      int64   `json:"rounds"`
	BidSteps    int64   `json:"bid_steps"`
	WallSeconds float64 `json:"wall_seconds"`
}

// SimResultView is the full cmpsim Result summary for a sim session.
type SimResultView struct {
	Mechanism       string          `json:"mechanism"`
	NormPerf        []float64       `json:"norm_perf"`
	WeightedSpeedup float64         `json:"weighted_speedup"`
	EnvyFreeness    float64         `json:"envy_freeness"`
	MeanIterations  float64         `json:"mean_iterations"`
	AvgPowerW       float64         `json:"avg_power_w"`
	MaxTempC        float64         `json:"max_temp_c"`
	ThrottleEpochs  int             `json:"throttle_epochs"`
	Health          HealthView      `json:"health"`
	Equilibrium     EquilibriumView `json:"equilibrium"`
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
