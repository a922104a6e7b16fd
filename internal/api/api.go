// Package api is the serving tier's wire contract: the JSON bodies that
// rebudgetd, rebudget-router, rebudget-snapstore and their clients
// exchange, the headers they stamp, the one JSON reply writer and the
// bearer-token check. It holds data and its encoding only (standard library
// imports, no behaviour of the daemon), so a client, router or load
// generator that speaks the contract links none of the allocation engine.
// What a spec means (validation, defaults, the bundle it builds) is the
// daemon's business and lives in internal/server.
package api

import "regexp"

// SessionSpec is the client-supplied description of a new chip session.
type SessionSpec struct {
	// ID optionally names the session (IDPattern); the server generates
	// one when empty.
	ID string `json:"id,omitempty"`
	// Tenant labels the session with a tenant path ("acme" or
	// "acme/prod": IDPattern segments joined by "/"). When the daemon
	// runs the tenant budget economy (server.Config.Tenancy), the label
	// selects whose cost sub-budget admits this session's work; unknown
	// tenants self-register with default share and floor, and an empty
	// label falls back to the TenantHeader, then the configured default
	// tenant. Without tenancy the label is carried and reported but gates
	// nothing.
	Tenant string `json:"tenant,omitempty"`
	// Workload selects the bundle the session allocates for.
	Workload WorkloadSpec `json:"workload"`
	// Mechanism is the allocator, in cmd/marketsim syntax: equalshare,
	// equalbudget, balanced, maxefficiency, rebudget-<step>, or rebudget
	// (which requires MinEnvyFreeness).
	Mechanism string `json:"mechanism"`
	// MinEnvyFreeness is the Theorem 2 fairness knob for "rebudget".
	MinEnvyFreeness float64 `json:"min_ef,omitempty"`
	// Mode selects the session engine: ModeMarket (default) re-solves the
	// analytic market each epoch; ModeSim steps the execution-driven
	// cmpsim chip, re-allocating on its ReallocEvery cadence.
	Mode string `json:"mode,omitempty"`
	// Bandwidth adds memory bandwidth as a third market resource.
	Bandwidth bool `json:"bandwidth,omitempty"`
	// Resilient wraps a market-mode mechanism in the core.Resilient
	// fallback chain (default true). In sim mode the chip's own
	// degraded-mode state machine plays that role, and true is refused
	// with a 400: the wrapper would absorb every failure before the state
	// machine saw it, and the session would report healthy under faults.
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

// Session modes.
const (
	ModeMarket = "market"
	ModeSim    = "sim"
)

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

// EpochBody is the optional POST body of /v1/sessions/{id}/epoch: how many
// epochs to step under one request (absent or zero: one).
type EpochBody struct {
	Epochs int `json:"epochs"`
}

// SessionList is the body of GET /v1/sessions, most recently used first.
type SessionList struct {
	Sessions []SessionView `json:"sessions"`
}

// Healthz is a daemon's /healthz body: "ok" with HTTP 200, or "draining"
// with HTTP 503.
type Healthz struct {
	Status        string `json:"status"`
	Sessions      int    `json:"sessions"`
	UptimeSeconds int64  `json:"uptime_seconds"`
}

// RouterHealthz is a router's /healthz body: "ok" while every active shard
// is healthy, "degraded" while some are (both HTTP 200), "down" with HTTP
// 503 when none is.
type RouterHealthz struct {
	Status          string        `json:"status"`
	Shards          []ShardHealth `json:"shards"`
	UptimeSeconds   int64         `json:"uptime_seconds"`
	MembershipEpoch uint64        `json:"membership_epoch"`
}

// ShardHealth is one active shard in a RouterHealthz: the router's probe
// verdict and the session count of its last good /healthz.
type ShardHealth struct {
	Shard    string `json:"shard"`
	Healthy  bool   `json:"healthy"`
	Sessions int64  `json:"sessions"`
}

// Membership is a router's view of its ring, the body of GET
// /admin/membership and of every admin change, so one call shows its
// effect. Draining lists removed shards still handing off sessions.
type Membership struct {
	Epoch     uint64   `json:"epoch"`
	Members   []string `json:"members"`
	Draining  []string `json:"draining,omitempty"`
	Migrating int      `json:"migrating"`
}

// SnapstoreHealthz is rebudget-snapstore's /healthz body, always "ok".
type SnapstoreHealthz struct {
	Snapshots     int    `json:"snapshots"`
	Status        string `json:"status"`
	UptimeSeconds int64  `json:"uptime_seconds"`
}

// Error is the body of every JSON error response.
type Error struct {
	Error string `json:"error"`
}

// TenantHeader is the HTTP header carrying a tenant label when the session
// spec doesn't: the router forwards it verbatim, and the daemon's create
// uses it as the spec's default.
const TenantHeader = "X-Rebudget-Tenant"

// EpochHeader is the HTTP header a router stamps on every response with its
// current membership epoch, so a caller can tell a membership change
// happened between two of its requests.
const EpochHeader = "X-Rebudget-Epoch"

// IDPattern is what a session id, a tenant-path segment and a snapshot key
// match: short, and safe in a URL path, a shell and a file name.
const IDPattern = `^[A-Za-z0-9_-]{1,64}$`

var idRE = regexp.MustCompile(IDPattern)

// ValidID reports whether s matches IDPattern.
func ValidID(s string) bool { return idRE.MatchString(s) }
