package api

import "time"

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
