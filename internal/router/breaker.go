package router

import (
	"sync"
	"time"
)

// breakerState is a circuit breaker's position.
type breakerState int

const (
	// breakerClosed: traffic flows; consecutive data-path failures are
	// counted toward opening.
	breakerClosed breakerState = iota
	// breakerOpen: the shard's data path recently failed repeatedly;
	// requests are rejected without being attempted until OpenTimeout
	// elapses or an active probe succeeds.
	breakerOpen
	// breakerHalfOpen: one trial request is allowed through; its outcome
	// decides between closing and re-opening.
	breakerHalfOpen
)

// String implements fmt.Stringer (metric label values).
func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half_open"
	default:
		return "unknown"
	}
}

var breakerStates = []breakerState{breakerClosed, breakerOpen, breakerHalfOpen}

// breakerFailures is the consecutive data-path failures that open a shard's
// breaker. Active probe failures count too, so a shard that dies quietly
// between requests still opens its breaker.
const breakerFailures = 3

// BreakerConfig sizes the per-shard circuit breakers. Zero values select
// the documented defaults.
type BreakerConfig struct {
	// OpenTimeout is how long an open breaker rejects before allowing a
	// half-open trial (default 5s). A successful active probe shortcuts
	// the wait: probe-green means the process is back, and the data path
	// deserves one trial even if the timer hasn't run out.
	OpenTimeout time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = 5 * time.Second
	}
	return c
}

// breaker is one shard's circuit breaker: closed → open on
// failures consecutive transport failures, open → half-open after
// OpenTimeout (or a good active probe), half-open → closed on a
// successful trial / back to open on a failed one. It exists because
// health probes alone miss gray failures: a shard can answer /healthz
// while its data path drops every real request (exactly what a
// partitioned-but-alive process looks like). The breaker watches the data
// path itself.
type breaker struct {
	failures int // consecutive failures that open it: breakerFailures outside tests
	cfg      BreakerConfig
	now      func() time.Time // injectable clock for tests

	mu          sync.Mutex
	state       breakerState
	consecFails int
	openedAt    time.Time
	trial       bool // a half-open trial is in flight

	transitions [3]int64 // entries into each state, for /metrics
}

func newBreaker(failures int, cfg BreakerConfig) *breaker {
	return &breaker{failures: failures, cfg: cfg.withDefaults(), now: time.Now}
}

// currentState reports the breaker's position (metrics, tests).
func (b *breaker) currentState() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// transitionCounts snapshots the per-state entry counters.
func (b *breaker) transitionCounts() [3]int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.transitions
}

// transition moves to state s (caller holds mu).
func (b *breaker) transition(s breakerState) {
	b.state = s
	b.transitions[s]++
	switch s {
	case breakerOpen:
		b.openedAt = b.now()
		b.consecFails = 0
		b.trial = false
	case breakerHalfOpen:
		b.trial = false
	case breakerClosed:
		b.consecFails = 0
		b.trial = false
	}
}

// allow reports whether a request may be attempted right now. While
// half-open it admits exactly one in-flight trial; the caller MUST report
// the outcome via onSuccess/onFailure, or the trial slot stays claimed.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cfg.OpenTimeout {
			return false
		}
		b.transition(breakerHalfOpen)
		b.trial = true
		return true
	case breakerHalfOpen:
		if b.trial {
			return false
		}
		b.trial = true
		return true
	}
	return true
}

// unclaim releases a trial slot claimed by allow() when the caller ends
// up not attempting after all (the retry budget ran out first). Without
// it the half-open state would deadlock waiting on an outcome that never
// comes.
func (b *breaker) unclaim() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.trial = false
	}
}

// onSuccess records a data-path success.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		b.consecFails = 0
	case breakerHalfOpen:
		// One successful trial closes the breaker.
		b.transition(breakerClosed)
	}
}

// onFailure records a data-path transport failure.
func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		b.consecFails++
		if b.consecFails >= b.failures {
			b.transition(breakerOpen)
		}
	case breakerHalfOpen:
		// The trial failed: back to open, restarting the timeout.
		b.transition(breakerOpen)
	case breakerOpen:
		// A fail-open last-resort attempt failed while already open;
		// nothing changes (re-stamping openedAt would starve recovery
		// under constant traffic).
	}
}

// onProbeSuccess records a good active /healthz probe. An open breaker
// moves straight to half-open — the process answers, so the data path has
// earned one trial — but never straight to closed: probes don't traverse
// the data path, and gray failures are precisely the case where probes
// pass while requests fail.
func (b *breaker) onProbeSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen {
		b.transition(breakerHalfOpen)
	}
}

// onProbeFailure records a failed active probe. While closed it counts
// like a data-path failure, so a shard that dies with no traffic in
// flight still opens its breaker before the next request arrives.
func (b *breaker) onProbeFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerClosed {
		b.consecFails++
		if b.consecFails >= b.failures {
			b.transition(breakerOpen)
		}
	}
}

const (
	// retriesPerRequest is the failover attempts one proxied request may
	// make beyond its first.
	retriesPerRequest = 2
	// retryRate is the router-wide retry bucket's refill in retries per
	// second; the bucket holds 2×retryRate.
	retryRate = 16
)

// retryBudget is the router-wide failover token bucket: every retry
// (second and later attempt of one proxied request) spends a token.
// During a brownout — shards slow, clients retrying — per-request retry
// caps alone still multiply offered load by the cap; the shared bucket
// bounds the tier's total retry rate no matter how many requests arrive.
type retryBudget struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	stamp  time.Time
	now    func() time.Time
}

// newRetryBudget returns a full bucket refilling at rate tokens per
// second, 2×rate deep.
func newRetryBudget(rate float64, now func() time.Time) *retryBudget {
	rb := &retryBudget{rate: rate, burst: 2 * rate, tokens: 2 * rate, now: now}
	rb.stamp = rb.now()
	return rb
}

// take spends one retry token, reporting whether one was available.
func (rb *retryBudget) take() bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	now := rb.now()
	rb.tokens += now.Sub(rb.stamp).Seconds() * rb.rate
	if rb.tokens > rb.burst {
		rb.tokens = rb.burst
	}
	rb.stamp = now
	if rb.tokens < 1 {
		return false
	}
	rb.tokens--
	return true
}
