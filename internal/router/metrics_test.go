package router

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"
)

// routerMetricsGolden is the exposition the per-line fmt.Fprintf renderer
// produced for the fixture below at the commit before rendering moved to
// internal/expo, with the membership section (then a separate, conditional
// render) appended. Captured once; uptime is a fixed argument here, so
// nothing needs masking.
const routerMetricsGolden = `# HELP rebudget_router_up Router liveness (always 1 while serving).
# TYPE rebudget_router_up gauge
rebudget_router_up 1
# HELP rebudget_router_uptime_seconds Seconds since the router started.
# TYPE rebudget_router_uptime_seconds gauge
rebudget_router_uptime_seconds 90
# HELP rebudget_router_shards Configured shard count.
# TYPE rebudget_router_shards gauge
rebudget_router_shards 2
# HELP rebudget_router_shards_healthy Shards currently passing health probes.
# TYPE rebudget_router_shards_healthy gauge
rebudget_router_shards_healthy 1
# HELP rebudget_router_sessions_placed_total Sessions created through the router.
# TYPE rebudget_router_sessions_placed_total counter
rebudget_router_sessions_placed_total 1
# HELP rebudget_router_failovers_total Requests moved past an unhealthy or unreachable shard.
# TYPE rebudget_router_failovers_total counter
rebudget_router_failovers_total 2
# HELP rebudget_router_rerouted_epochs_total Epoch requests served by a non-primary shard.
# TYPE rebudget_router_rerouted_epochs_total counter
rebudget_router_rerouted_epochs_total 3
# HELP rebudget_router_no_shard_total Requests failed because no shard was healthy.
# TYPE rebudget_router_no_shard_total counter
rebudget_router_no_shard_total 4
# HELP rebudget_router_relay_aborted_total Responses aborted because the shard broke off after its headers were relayed.
# TYPE rebudget_router_relay_aborted_total counter
rebudget_router_relay_aborted_total 15
# HELP rebudget_router_breaker_rejections_total Shards skipped on the first pass because their circuit breaker was open.
# TYPE rebudget_router_breaker_rejections_total counter
rebudget_router_breaker_rejections_total 5
# HELP rebudget_router_retries_total Failover attempts beyond a request's first.
# TYPE rebudget_router_retries_total counter
rebudget_router_retries_total 6
# HELP rebudget_router_retry_budget_exhausted_total Retries refused by the router-wide retry token bucket.
# TYPE rebudget_router_retry_budget_exhausted_total counter
rebudget_router_retry_budget_exhausted_total 7
# HELP rebudget_router_shard_up Shard health by probe (1 healthy).
# TYPE rebudget_router_shard_up gauge
rebudget_router_shard_up{shard="http://10.0.0.1:9001"} 1
rebudget_router_shard_up{shard="http://10.0.0.2:9001"} 0
# HELP rebudget_router_shard_sessions Resident sessions per shard, from its last good /healthz.
# TYPE rebudget_router_shard_sessions gauge
rebudget_router_shard_sessions{shard="http://10.0.0.1:9001"} 41
rebudget_router_shard_sessions{shard="http://10.0.0.2:9001"} 0
# HELP rebudget_router_shard_probes_total Health probes completed per shard.
# TYPE rebudget_router_shard_probes_total counter
rebudget_router_shard_probes_total{shard="http://10.0.0.1:9001"} 17
rebudget_router_shard_probes_total{shard="http://10.0.0.2:9001"} 0
# HELP rebudget_router_breaker_state Circuit breaker position per shard (one-hot over states).
# TYPE rebudget_router_breaker_state gauge
rebudget_router_breaker_state{shard="http://10.0.0.1:9001",state="closed"} 1
rebudget_router_breaker_state{shard="http://10.0.0.1:9001",state="open"} 0
rebudget_router_breaker_state{shard="http://10.0.0.1:9001",state="half_open"} 0
rebudget_router_breaker_state{shard="http://10.0.0.2:9001",state="closed"} 0
rebudget_router_breaker_state{shard="http://10.0.0.2:9001",state="open"} 1
rebudget_router_breaker_state{shard="http://10.0.0.2:9001",state="half_open"} 0
# HELP rebudget_router_breaker_transitions_total Circuit breaker entries into each state per shard.
# TYPE rebudget_router_breaker_transitions_total counter
rebudget_router_breaker_transitions_total{shard="http://10.0.0.1:9001",to="closed"} 0
rebudget_router_breaker_transitions_total{shard="http://10.0.0.1:9001",to="open"} 0
rebudget_router_breaker_transitions_total{shard="http://10.0.0.1:9001",to="half_open"} 0
rebudget_router_breaker_transitions_total{shard="http://10.0.0.2:9001",to="closed"} 0
rebudget_router_breaker_transitions_total{shard="http://10.0.0.2:9001",to="open"} 1
rebudget_router_breaker_transitions_total{shard="http://10.0.0.2:9001",to="half_open"} 0
# HELP rebudget_router_requests_total Requests routed, by route and status code.
# TYPE rebudget_router_requests_total counter
rebudget_router_requests_total{route="/healthz",code="200"} 1
rebudget_router_requests_total{route="/v1/sessions/{id}/epoch",code="200"} 1
rebudget_router_requests_total{route="/v1/sessions/{id}/epoch",code="429"} 1
# HELP rebudget_router_request_seconds Proxied request latency.
# TYPE rebudget_router_request_seconds histogram
rebudget_router_request_seconds_bucket{le="0.0005"} 1
rebudget_router_request_seconds_bucket{le="0.001"} 1
rebudget_router_request_seconds_bucket{le="0.0025"} 1
rebudget_router_request_seconds_bucket{le="0.005"} 2
rebudget_router_request_seconds_bucket{le="0.01"} 2
rebudget_router_request_seconds_bucket{le="0.025"} 2
rebudget_router_request_seconds_bucket{le="0.05"} 2
rebudget_router_request_seconds_bucket{le="0.1"} 2
rebudget_router_request_seconds_bucket{le="0.25"} 2
rebudget_router_request_seconds_bucket{le="0.5"} 2
rebudget_router_request_seconds_bucket{le="1"} 2
rebudget_router_request_seconds_bucket{le="2.5"} 2
rebudget_router_request_seconds_bucket{le="5"} 2
rebudget_router_request_seconds_bucket{le="+Inf"} 3
rebudget_router_request_seconds_sum 7.0032
rebudget_router_request_seconds_count 3
# HELP rebudget_router_membership_epoch Current membership epoch (1 until the first change).
# TYPE rebudget_router_membership_epoch gauge
rebudget_router_membership_epoch 3
# HELP rebudget_router_membership_changes_total Ring flips applied (admin API, config reload, or gossip adoption).
# TYPE rebudget_router_membership_changes_total counter
rebudget_router_membership_changes_total 11
# HELP rebudget_router_migrations_total Sessions migrated to a new owner via snapshot evict/rehydrate.
# TYPE rebudget_router_migrations_total counter
rebudget_router_migrations_total 8
# HELP rebudget_router_migration_retries_total Requests re-routed after a session moved mid-flight (swallowed 410s).
# TYPE rebudget_router_migration_retries_total counter
rebudget_router_migration_retries_total 9
# HELP rebudget_router_migrations_dropped_total Migrations abandoned because the owning shard stayed unreachable.
# TYPE rebudget_router_migrations_dropped_total counter
rebudget_router_migrations_dropped_total 10
# HELP rebudget_router_migrations_pending Session moves queued or pinned mid-move.
# TYPE rebudget_router_migrations_pending gauge
rebudget_router_migrations_pending 4
# HELP rebudget_router_gossip_rounds_total Gossip digests pushed to peers.
# TYPE rebudget_router_gossip_rounds_total counter
rebudget_router_gossip_rounds_total 12
# HELP rebudget_router_gossip_adopted_total Peer shard observations adopted locally.
# TYPE rebudget_router_gossip_adopted_total counter
rebudget_router_gossip_adopted_total 13
# HELP rebudget_router_gossip_failures_total Gossip pushes that failed to reach their peer.
# TYPE rebudget_router_gossip_failures_total counter
rebudget_router_gossip_failures_total 14
`

// TestRouterMetricsGolden pins the router's /metrics text byte for byte
// across the move to the shared renderer.
func TestRouterMetricsGolden(t *testing.T) {
	m := &rtrMetrics{}
	for i, c := range []*atomic.Int64{&m.sessionsPlaced, &m.failovers, &m.reroutedEpochs, &m.noShard,
		&m.breakerRejects, &m.retries, &m.retryExhausted, &m.migrations, &m.migrationRetries,
		&m.migrationDropped, &m.membershipChanges, &m.gossipRounds, &m.gossipAdopted, &m.gossipFailures,
		&m.relayAborted} {
		c.Store(int64(i + 1))
	}
	m.observe("/v1/sessions/{id}/epoch", 200, 3*time.Millisecond)
	m.observe("/v1/sessions/{id}/epoch", 429, 200*time.Microsecond)
	m.observe("/healthz", 200, 7*time.Second)

	a := &backend{base: "http://10.0.0.1:9001", br: newBreaker(breakerFailures, BreakerConfig{})}
	a.healthy.Store(true)
	a.sessions.Store(41)
	a.probes.Store(17)
	b := &backend{base: "http://10.0.0.2:9001", br: newBreaker(breakerFailures, BreakerConfig{})}
	for i := 0; i < 3; i++ {
		b.br.onFailure() // opens the breaker
	}

	var buf bytes.Buffer
	m.render(&buf, []*backend{a, b}, 90*time.Second, 3, 4)
	if got := buf.String(); got != routerMetricsGolden {
		t.Fatalf("router exposition drifted from the golden; got:\n%s", got)
	}
}
