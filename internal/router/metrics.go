package router

import (
	"io"
	"sync/atomic"
	"time"

	"rebudget/internal/expo"
)

// rtrMetrics is the router's observability state and series definitions,
// rendered through internal/expo.
type rtrMetrics struct {
	sessionsPlaced atomic.Int64 // creates proxied successfully
	failovers      atomic.Int64 // requests skipped past an unhealthy/unreachable shard
	reroutedEpochs atomic.Int64 // epoch requests served by a non-primary shard
	noShard        atomic.Int64 // requests with no healthy shard at all
	relayAborted   atomic.Int64 // responses cut because the shard broke off mid-body
	breakerRejects atomic.Int64 // first-pass skips because a breaker was open
	retries        atomic.Int64 // failover attempts beyond a request's first
	retryExhausted atomic.Int64 // retries refused by the router-wide token bucket

	migrations        atomic.Int64 // sessions moved to a new owner
	migrationRetries  atomic.Int64 // 410s swallowed and re-routed mid-migration
	migrationDropped  atomic.Int64 // moves abandoned (owner gone; snapshot-or-cold)
	membershipChanges atomic.Int64 // ring flips (admin, reload, or gossip adoption)
	gossipRounds      atomic.Int64 // digests pushed to peers
	gossipAdopted     atomic.Int64 // peer observations adopted locally
	gossipFailures    atomic.Int64 // unreachable peers

	requests expo.Requests // route × status code, and latency
}

// render writes the exposition: router counters, per-shard gauges (health,
// probed session counts, breaker position), the proxied latency histogram,
// and the membership, migration and gossip series. pending is the count of
// session moves queued or pinned mid-move.
func (m *rtrMetrics) render(w io.Writer, backends []*backend, uptime time.Duration, epoch uint64, pending int) {
	e := expo.Acquire(w)
	defer e.Release()

	e.Gauge("rebudget_router_up", "Router liveness (always 1 while serving).", 1)
	e.Gauge("rebudget_router_uptime_seconds", "Seconds since the router started.", uptime.Seconds())
	e.Gauge("rebudget_router_shards", "Configured shard count.", float64(len(backends)))
	healthyN := int64(0)
	for _, b := range backends {
		healthyN += b2i(b.healthy.Load())
	}
	e.Gauge("rebudget_router_shards_healthy", "Shards currently passing health probes.", float64(healthyN))
	e.Counter("rebudget_router_sessions_placed_total", "Sessions created through the router.", float64(m.sessionsPlaced.Load()))
	e.Counter("rebudget_router_failovers_total", "Requests moved past an unhealthy or unreachable shard.", float64(m.failovers.Load()))
	e.Counter("rebudget_router_rerouted_epochs_total", "Epoch requests served by a non-primary shard.", float64(m.reroutedEpochs.Load()))
	e.Counter("rebudget_router_no_shard_total", "Requests failed because no shard was healthy.", float64(m.noShard.Load()))
	e.Counter("rebudget_router_relay_aborted_total", "Responses aborted because the shard broke off after its headers were relayed.", float64(m.relayAborted.Load()))
	e.Counter("rebudget_router_breaker_rejections_total", "Shards skipped on the first pass because their circuit breaker was open.", float64(m.breakerRejects.Load()))
	e.Counter("rebudget_router_retries_total", "Failover attempts beyond a request's first.", float64(m.retries.Load()))
	e.Counter("rebudget_router_retry_budget_exhausted_total", "Retries refused by the router-wide retry token bucket.", float64(m.retryExhausted.Load()))

	e.Header("rebudget_router_shard_up", "Shard health by probe (1 healthy).", "gauge")
	for _, b := range backends {
		e.Int("rebudget_router_shard_up", b2i(b.healthy.Load()), "shard", b.base)
	}
	e.Header("rebudget_router_shard_sessions", "Resident sessions per shard, from its last good /healthz.", "gauge")
	for _, b := range backends {
		e.Int("rebudget_router_shard_sessions", b.sessions.Load(), "shard", b.base)
	}
	e.Header("rebudget_router_shard_probes_total", "Health probes completed per shard.", "counter")
	for _, b := range backends {
		e.Int("rebudget_router_shard_probes_total", b.probes.Load(), "shard", b.base)
	}
	e.Header("rebudget_router_breaker_state", "Circuit breaker position per shard (one-hot over states).", "gauge")
	for _, b := range backends {
		cur := b.br.currentState()
		for _, s := range breakerStates {
			e.Int("rebudget_router_breaker_state", b2i(s == cur), "shard", b.base, "state", s.String())
		}
	}
	e.Header("rebudget_router_breaker_transitions_total", "Circuit breaker entries into each state per shard.", "counter")
	for _, b := range backends {
		tc := b.br.transitionCounts()
		for _, s := range breakerStates {
			e.Int("rebudget_router_breaker_transitions_total", tc[s], "shard", b.base, "to", s.String())
		}
	}

	e.Labelled("rebudget_router_requests_total", "Requests routed, by route and status code.", &m.requests.Codes)
	e.Histogram("rebudget_router_request_seconds", "Proxied request latency.", &m.requests.Latency)

	e.Gauge("rebudget_router_membership_epoch", "Current membership epoch (1 until the first change).", float64(epoch))
	e.Counter("rebudget_router_membership_changes_total", "Ring flips applied (admin API, config reload, or gossip adoption).", float64(m.membershipChanges.Load()))
	e.Counter("rebudget_router_migrations_total", "Sessions migrated to a new owner via snapshot evict/rehydrate.", float64(m.migrations.Load()))
	e.Counter("rebudget_router_migration_retries_total", "Requests re-routed after a session moved mid-flight (swallowed 410s).", float64(m.migrationRetries.Load()))
	e.Counter("rebudget_router_migrations_dropped_total", "Migrations abandoned because the owning shard stayed unreachable.", float64(m.migrationDropped.Load()))
	e.Gauge("rebudget_router_migrations_pending", "Session moves queued or pinned mid-move.", float64(pending))
	e.Counter("rebudget_router_gossip_rounds_total", "Gossip digests pushed to peers.", float64(m.gossipRounds.Load()))
	e.Counter("rebudget_router_gossip_adopted_total", "Peer shard observations adopted locally.", float64(m.gossipAdopted.Load()))
	e.Counter("rebudget_router_gossip_failures_total", "Gossip pushes that failed to reach their peer.", float64(m.gossipFailures.Load()))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
