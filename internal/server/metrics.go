package server

import (
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"rebudget/internal/expo"
	"rebudget/internal/metrics"
)

// costBuckets are the per-epoch cost-estimate histogram upper bounds, in
// cost units. One unit is a cheap 8-core epoch (the dispatcher's pricing
// anchor); the top bucket covers the largest analytic priors.
var costBuckets = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32, 64}

// costTopK bounds the per-id offender series in the default exposition:
// instead of one rebudgetd_session_epoch_cost{id} line per resident session
// (100k lines at density), the scrape carries the K most expensive sessions.
const costTopK = 5

// srvMetrics is the daemon's observability state: lock-free counters on the
// hot paths, a mutex-guarded label map for per-route request accounting, and
// the series definitions rendered through internal/expo.
type srvMetrics struct {
	sessionsCreated atomic.Int64
	epochsServed    atomic.Int64
	tickerDropped   atomic.Int64
	parked          atomic.Int64 // sessions ever hibernated
	unparked        atomic.Int64 // sessions ever woken from hibernation

	evicted   expo.LabelCounters // reason: capacity | idle | deleted | drain
	rejected  expo.LabelCounters // reason: busy | mailbox | draining | timeout | ratelimit | tenant | auth
	snapshots expo.LabelCounters // op: save | restore | verified | corrupt | save_error | load_error | restore_error

	requests expo.Requests // route × status code, and latency

	// eq is the server-wide equilibrium profile: the observer installed on
	// every session's allocator, surviving session eviction so the counters
	// stay monotonic (as Prometheus counters must).
	eq metrics.EquilibriumProfile
}

// render writes the exposition. Cardinality stays bounded: population
// gauges, a cost histogram and a top-K offender list summarise the sessions
// — at 100k resident sessions a per-id series would be the scrape. One
// session's epochs and health are in GET /v1/sessions/{id}.
func (m *srvMetrics) render(w io.Writer, sessions []*session, disp *dispatcher,
	gov *tenantGovernor, draining bool, uptime time.Duration) {
	e := expo.Acquire(w)
	defer e.Release()
	parked := 0
	for _, s := range sessions {
		if s.isParked() {
			parked++
		}
	}

	e.Gauge("rebudgetd_up", "Daemon liveness (always 1 while serving).", 1)
	e.Gauge("rebudgetd_uptime_seconds", "Seconds since the daemon started.", uptime.Seconds())
	drainVal := 0.0
	if draining {
		drainVal = 1
	}
	e.Gauge("rebudgetd_draining", "1 while the daemon is draining for shutdown.", drainVal)
	e.Gauge("rebudgetd_sessions_live", "Sessions currently resident.", float64(len(sessions)))
	e.Gauge("rebudgetd_sessions_parked", "Resident sessions currently hibernating (no goroutine, engine collapsed to a snapshot).", float64(parked))
	e.Counter("rebudgetd_sessions_created_total", "Sessions ever created.", float64(m.sessionsCreated.Load()))
	e.Counter("rebudgetd_sessions_parked_total", "Sessions ever hibernated by the park sweep.", float64(m.parked.Load()))
	e.Counter("rebudgetd_sessions_unparked_total", "Hibernated sessions woken by a touch.", float64(m.unparked.Load()))
	e.Labelled("rebudgetd_sessions_evicted_total", "Sessions removed, by reason.", &m.evicted)
	e.Counter("rebudgetd_epochs_served_total", "Allocation epochs stepped across all sessions.", float64(m.epochsServed.Load()))
	e.Counter("rebudgetd_ticker_epochs_dropped_total", "Ticker epochs dropped under dispatcher backpressure.", float64(m.tickerDropped.Load()))
	e.Labelled("rebudgetd_rejected_total", "Requests rejected, by reason.", &m.rejected)
	e.Labelled("rebudgetd_snapshots_total", "Session snapshot operations, by outcome.", &m.snapshots)
	// Dispatcher admission state, in cost units.
	e.Gauge("rebudgetd_dispatch_in_flight_cost", "Cost units currently claimed by admitted requests.", disp.inFlightCost())
	e.Gauge("rebudgetd_dispatch_queued_cost", "Cost units waiting for dispatcher capacity.", disp.queuedCostUnits())
	e.Gauge("rebudgetd_dispatch_capacity_cost", "Dispatcher concurrent budget, in cost units.", disp.capacity)

	// Tenant budget economy (only when the governor is armed): the tree's
	// budget state and the admission-side counters, one series per tenant.
	// tenant_smoke.sh and the loadgen tenant mix watch lent/granted move
	// through a lend-then-reclaim cycle.
	if gov != nil {
		rows, epochs := gov.metricsSnapshot()
		e.Counter("rebudgetd_tenant_rebalance_epochs_total", "Tenant-tree rebalance epochs run.", float64(epochs))
		tenantSeries := func(name, help, typ string, value func(tenantMetric) float64) {
			e.Header(name, help, typ)
			for _, row := range rows {
				e.Float(name, value(row), "tenant", row.Path)
			}
		}
		tenantSeries("rebudgetd_tenant_deserved_cost", "Deserved budget (cost units): the tenant's static entitlement.", "gauge",
			func(r tenantMetric) float64 { return r.Deserved })
		tenantSeries("rebudgetd_tenant_granted_cost", "Granted budget (cost units): what the tenant may use now.", "gauge",
			func(r tenantMetric) float64 { return r.Granted })
		tenantSeries("rebudgetd_tenant_lent_cost", "Budget currently lent out: max(0, deserved-granted).", "gauge",
			func(r tenantMetric) float64 { return r.Lent })
		tenantSeries("rebudgetd_tenant_borrowed_cost", "Budget currently borrowed: max(0, granted-deserved).", "gauge",
			func(r tenantMetric) float64 { return r.Borrowed })
		tenantSeries("rebudgetd_tenant_demand_cost", "Demand signal fed to the tree (peak wanted in-flight cost, decayed).", "gauge",
			func(r tenantMetric) float64 { return r.Demand })
		tenantSeries("rebudgetd_tenant_in_flight_cost", "Cost units currently admitted under the tenant's grant.", "gauge",
			func(r tenantMetric) float64 { return r.InFlight })
		tenantSeries("rebudgetd_tenant_mbr_floor", "Configured fairness floor: granted never drops below floor x slice while demanding.", "gauge",
			func(r tenantMetric) float64 { return r.MBRFloor })
		tenantSeries("rebudgetd_tenant_fairness", "Realized budget share: granted/deserved (1 = exactly the deserved share).", "gauge",
			func(r tenantMetric) float64 {
				if r.Deserved <= 0 {
					return 1
				}
				return r.Granted / r.Deserved
			})
		tenantSeries("rebudgetd_tenant_lent_cost_total", "Cumulative budget-epochs spent below the deserved share (lender side).", "counter",
			func(r tenantMetric) float64 { return r.LentTotal })
		tenantSeries("rebudgetd_tenant_reclaimed_cost_total", "Cumulative budget cut back by bounded reclaim.", "counter",
			func(r tenantMetric) float64 { return r.ReclaimedTotal })
		tenantSeries("rebudgetd_tenant_admitted_total", "Requests admitted under the tenant's sub-budget.", "counter",
			func(r tenantMetric) float64 { return float64(r.Admitted) })
		tenantSeries("rebudgetd_tenant_rejected_total", "Requests refused because the tenant's grant was exhausted.", "counter",
			func(r tenantMetric) float64 { return float64(r.Rejected) })
		bySessTenant := map[string]int{}
		for _, s := range sessions {
			if t := s.spec.Tenant; t != "" {
				bySessTenant[t]++
			}
		}
		e.Header("rebudgetd_tenant_sessions", "Resident sessions per tenant.", "gauge")
		for _, row := range rows {
			e.Int("rebudgetd_tenant_sessions", int64(bySessTenant[row.Path]), "tenant", row.Path)
		}
	}

	// Equilibrium convergence cost (from metrics.EquilibriumProfile).
	eq := m.eq.Snapshot()
	e.Counter("rebudgetd_equilibrium_runs_total", "Equilibrium computations performed.", float64(eq.Runs))
	e.Counter("rebudgetd_equilibrium_rounds_total", "Bidding-pricing rounds summed over all equilibria.", float64(eq.Rounds))
	e.Counter("rebudgetd_equilibrium_bid_steps_total", "Per-player bid updates summed over all equilibria.", float64(eq.BidSteps))
	e.Counter("rebudgetd_equilibrium_wall_seconds_total", "Wall time spent inside equilibrium computations.", eq.Wall.Seconds())

	// Request accounting.
	e.Labelled("rebudgetd_requests_total", "HTTP requests served, by route and status code.", &m.requests.Codes)
	e.Histogram("rebudgetd_request_seconds", "HTTP request latency.", &m.requests.Latency)

	// Degradation FSM: population counts per state.
	byState := map[metrics.HealthState]int{}
	for _, s := range sessions {
		byState[s.Health()]++
	}
	e.Header("rebudgetd_sessions_by_state", "Sessions per degradation-FSM state.", "gauge")
	for _, st := range []metrics.HealthState{metrics.Healthy, metrics.Degraded, metrics.Recovering} {
		e.Int("rebudgetd_sessions_by_state", int64(byState[st]), "state", st.String())
	}

	// Per-epoch cost estimates as a bounded distribution snapshot plus the
	// K most expensive sessions — what replaced the O(sessions) per-id
	// gauge. (A gauge histogram: recomputed from the live population each
	// scrape, not cumulative.)
	m.renderCostProfile(e, sessions)
}

// renderCostProfile emits the cost histogram and top-K offender series.
func (m *srvMetrics) renderCostProfile(e *expo.Writer, sessions []*session) {
	cum := make([]int64, len(costBuckets)+1) // +Inf tail
	var sum float64
	top := make([]*session, 0, costTopK)
	topCost := make([]float64, 0, costTopK)
	for _, s := range sessions {
		c := s.costEstimate()
		sum += c
		cum[sort.SearchFloat64s(costBuckets, c)]++
		// Bounded insertion into the descending offender list — K is 5, a
		// linear scan beats cleverness.
		if len(top) < costTopK || c > topCost[len(topCost)-1] {
			ins := len(top)
			for j, tc := range topCost {
				if c > tc {
					ins = j
					break
				}
			}
			if len(top) < costTopK {
				top = append(top, nil)
				topCost = append(topCost, 0)
			}
			copy(top[ins+1:], top[ins:])
			copy(topCost[ins+1:], topCost[ins:])
			top[ins] = s
			topCost[ins] = c
		}
	}
	for i := 1; i < len(cum); i++ {
		cum[i] += cum[i-1]
	}
	e.Header("rebudgetd_session_epoch_cost", "Distribution of per-epoch EWMA cost estimates across live sessions (recomputed each scrape).", "histogram")
	e.Buckets("rebudgetd_session_epoch_cost", costBuckets, cum, sum, int64(len(sessions)))

	e.Header("rebudgetd_session_cost_topk", "The K most expensive live sessions by per-epoch cost estimate (bounded cardinality; rank 1 = costliest).", "gauge")
	for i, s := range top {
		e.Float("rebudgetd_session_cost_topk", topCost[i], "rank", strconv.Itoa(i+1), "session", s.id)
	}
}
