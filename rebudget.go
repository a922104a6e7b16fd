// Package rebudget is the public facade of the ReBudget reproduction — a
// market-based multicore resource-allocation library implementing Wang &
// Martínez, "ReBudget: Trading Off Efficiency vs. Fairness in Market-Based
// Multicore Resource Allocation via Runtime Budget Reassignment"
// (ASPLOS 2016).
//
// The facade re-exports the library's stable surface:
//
//   - the proportional-share market and its equilibrium search (§2),
//   - the MUR/MBR metrics with their efficiency and fairness bounds
//     (Theorems 1–2),
//   - the ReBudget budget-reassignment allocator and the baselines it is
//     evaluated against (§4.2, §6),
//   - the synthetic SPEC-like application models and workload bundles (§5),
//   - the execution-driven CMP simulator used for detailed evaluation
//     (§5.1, §6.3).
//
// Quick start:
//
//	bundle, _ := rebudget.Figure3Bundle()
//	setup, _ := rebudget.NewSetup(bundle)
//	out, _ := rebudget.ReBudget{Step: 20}.Allocate(setup.Capacity, setup.Players)
//	fmt.Println(out.Efficiency(), out.MUR, out.MBR)
//
// The package's Example functions are runnable programs whose output go test
// checks; cmd/rebudget-bench is the experiment harness that regenerates
// every table and figure of the paper's evaluation.
package rebudget

import (
	"rebudget/internal/app"
	"rebudget/internal/cache"
	"rebudget/internal/cmpsim"
	"rebudget/internal/core"
	"rebudget/internal/fault"
	"rebudget/internal/market"
	"rebudget/internal/metrics"
	"rebudget/internal/workload"
)

// --- allocation mechanisms (§4.2, §6) ---

type (
	// Allocator is a resource-allocation mechanism.
	Allocator = core.Allocator
	// PlayerSpec describes one allocation client.
	PlayerSpec = core.PlayerSpec
	// Outcome is a mechanism's allocation decision plus diagnostics.
	Outcome = core.Outcome
	// ReBudget is the paper's contribution: iterative budget
	// reassignment with an efficiency-vs-fairness knob.
	ReBudget = core.ReBudget
	// EqualShare splits every resource evenly (no market).
	EqualShare = core.EqualShare
	// EqualBudget is the XChange market with uniform budgets.
	EqualBudget = core.EqualBudget
	// Balanced is XChange's potential-proportional budget assignment.
	Balanced = core.Balanced
	// MaxEfficiency is the infeasible welfare-maximising reference.
	MaxEfficiency = core.MaxEfficiency
)

// InitialBudget is every player's starting budget (§6).
const InitialBudget = core.InitialBudget

// --- resilience: fault injection and graceful degradation ---

type (
	// Resilient hardens any Allocator with a graceful-degradation fallback
	// chain (sanitized retry → last good outcome → EqualShare). It backs
	// off after 3 consecutive failures for 4–7 calls.
	Resilient = core.Resilient
	// ResilientConfig has no fields: the fallback chain's tuning is fixed.
	// Pass ResilientConfig{}.
	ResilientConfig = core.ResilientConfig
	// FaultConfig configures the deterministic fault injector; the zero
	// value disables injection entirely.
	FaultConfig = fault.Config
	// FaultStats counts the faults an injector fired.
	FaultStats = fault.Stats
	// Health is the allocation pipeline's degraded-mode telemetry.
	Health = metrics.Health
	// HealthState is the pipeline state machine position.
	HealthState = metrics.HealthState
	// NotConvergedError reports an equilibrium run that stopped before
	// prices settled, carrying the complete partial state.
	NotConvergedError = market.NotConvergedError
	// UtilityError reports a player utility that produced a non-finite
	// value during an equilibrium run.
	UtilityError = market.UtilityError
)

// ErrBadInput marks allocation failures caused by invalid player input.
var ErrBadInput = core.ErrBadInput

// NewResilient wraps an allocation mechanism with the fallback chain.
func NewResilient(inner Allocator, cfg ResilientConfig) *Resilient {
	return core.NewResilient(inner, cfg)
}

// Settle unwraps a NotConvergedError into its best-effort equilibrium —
// the paper's §6.4 fail-safe policy as an explicit call-site choice.
func Settle(eq *Equilibrium, err error) (*Equilibrium, error) {
	return market.Settle(eq, err)
}

// --- market framework (§2) ---

type (
	// Market is a proportional-share market instance.
	Market = market.Market
	// Player is one market participant.
	Player = market.Player
	// Utility is a player's utility over allocation vectors.
	Utility = market.Utility
	// UtilityFunc adapts a function to Utility.
	UtilityFunc = market.UtilityFunc
	// MarketConfig tunes the equilibrium search.
	MarketConfig = market.Config
	// Equilibrium is the outcome of a bidding–pricing run.
	Equilibrium = market.Equilibrium
)

// NewMarket builds a market over the given resource capacities.
func NewMarket(capacity []float64, players []*Player, cfg MarketConfig) (*Market, error) {
	return market.New(capacity, players, cfg)
}

// DefaultMarketConfig returns the paper's convergence constants.
func DefaultMarketConfig() MarketConfig { return market.DefaultConfig() }

// --- metrics and theorems (§3) ---

// MUR is the Market Utility Range (Definition 5).
func MUR(lambdas []float64) (float64, error) { return metrics.MUR(lambdas) }

// MBR is the Market Budget Range (Definition 6).
func MBR(budgets []float64) (float64, error) { return metrics.MBR(budgets) }

// PoALowerBound is Theorem 1's efficiency guarantee.
func PoALowerBound(mur float64) float64 { return metrics.PoALowerBound(mur) }

// EnvyFreenessBound is Theorem 2's fairness guarantee.
func EnvyFreenessBound(mbr float64) float64 { return metrics.EnvyFreenessBound(mbr) }

// MinMBRForEnvyFreeness inverts Theorem 2 (the administrator's knob, §4.2).
func MinMBRForEnvyFreeness(c float64) (float64, error) {
	return metrics.MinMBRForEnvyFreeness(c)
}

// --- applications and workloads (§5) ---

type (
	// AppSpec is one synthetic application's parameters.
	AppSpec = app.Spec
	// AppClass is the C/P/B/N sensitivity classification.
	AppClass = app.Class
	// AppModel evaluates an application's performance and power.
	AppModel = app.Model
	// AppUtility is an application's (Talus-convexified) market utility.
	AppUtility = app.Utility
	// Bundle is one multiprogrammed workload.
	Bundle = workload.Bundle
	// Category is a bundle category (CPBN, CCPP, …).
	Category = workload.Category
	// Setup is an analytically-modelled market instance for a bundle.
	Setup = workload.Setup
)

// Application classes.
const (
	ClassCache = app.Cache
	ClassPower = app.Power
	ClassBoth  = app.Both
	ClassNone  = app.None
)

// Catalog returns the 24-application workload (§5).
func Catalog() []AppSpec { return app.Catalog() }

// LookupApp finds a catalog application by name.
func LookupApp(name string) (AppSpec, error) { return app.Lookup(name) }

// NewAppModel builds an application performance model.
func NewAppModel(spec AppSpec) *AppModel { return app.NewModel(spec) }

// MissCurve is a miss ratio as a function of allocated cache regions.
type MissCurve = cache.MissCurve

// NewAppUtility builds a Talus-convexified market utility from an
// application model and a (measured or analytic) miss curve.
func NewAppUtility(m *AppModel, curve *MissCurve) (*AppUtility, error) {
	return app.NewUtility(m, curve)
}

// BandwidthUtility is the three-resource extension of AppUtility: cache
// regions, watts and memory bandwidth (GB/s).
type BandwidthUtility = app.BandwidthUtility

// NewBandwidthUtility builds the three-resource utility surface.
func NewBandwidthUtility(m *AppModel, curve *MissCurve) (*BandwidthUtility, error) {
	return app.NewBandwidthUtility(m, curve)
}

// NewSetupWithBandwidth assembles a three-resource market for a bundle —
// the framework's general M-resource form (§2); the paper's evaluation
// stops at cache + power.
func NewSetupWithBandwidth(b Bundle) (*Setup, error) {
	return workload.NewSetupWithBandwidth(b)
}

// Categories returns the six bundle categories.
func Categories() []Category { return workload.Categories() }

// GenerateBundles reproduces the §5 sweep deterministically.
func GenerateBundles(cores, perCategory int, seed uint64) ([]Bundle, error) {
	return workload.GenerateAll(cores, perCategory, seed)
}

// Figure3Bundle is the 8-core BBPC case-study bundle (§6.1.1).
func Figure3Bundle() (Bundle, error) { return workload.Figure3Bundle() }

// NewSetup profiles a bundle analytically and assembles its market.
func NewSetup(b Bundle) (*Setup, error) { return workload.NewSetup(b) }

// --- multithreaded applications (§5, application-granularity allocation) ---

type (
	// ThreadedApp is a multithreaded application occupying several cores.
	ThreadedApp = workload.ThreadedApp
	// ThreadedBundle is a workload of multithreaded applications.
	ThreadedBundle = workload.ThreadedBundle
)

// NewSetupThreaded assembles an application-granularity market: all threads
// of an application share one player's budget and allocation.
func NewSetupThreaded(tb ThreadedBundle) (*Setup, error) {
	return workload.NewSetupThreaded(tb)
}

// PerThreadUtilities converts application (coalition) utilities back into
// per-thread normalised performance.
func PerThreadUtilities(tb ThreadedBundle, utilities []float64) ([]float64, error) {
	return workload.PerThreadUtilities(tb, utilities)
}

// --- detailed simulation (§5.1, §6.3) ---

type (
	// SimConfig sizes an execution-driven simulation.
	SimConfig = cmpsim.Config
	// Chip is one simulated CMP running one bundle.
	Chip = cmpsim.Chip
	// SimResult summarises a simulated run.
	SimResult = cmpsim.Result
	// SystemConfig mirrors Table 1.
	SystemConfig = cmpsim.SystemConfig
	// SwitchEvent schedules a context switch during a simulated run.
	SwitchEvent = cmpsim.SwitchEvent
)

// DefaultSimConfig sizes a simulation for the given core count.
func DefaultSimConfig(cores int) SimConfig { return cmpsim.DefaultConfig(cores) }

// NewChip builds a simulated CMP for a bundle.
func NewChip(cfg SimConfig, b Bundle) (*Chip, error) { return cmpsim.NewChip(cfg, b) }

// NewSystemConfig scales Table 1 to a core count.
func NewSystemConfig(cores int) SystemConfig { return cmpsim.NewSystemConfig(cores) }
