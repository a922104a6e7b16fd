package router

import (
	"testing"
	"time"
)

// fakeClock is a manual clock for breaker/budget tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1700000000, 0)} }
func testBreaker(failures int, cfg BreakerConfig) (*breaker, *fakeClock) {
	b := newBreaker(failures, cfg)
	clk := newFakeClock()
	b.now = clk.now
	return b, clk
}

func TestBreakerOpensOnConsecutiveFailures(t *testing.T) {
	b, _ := testBreaker(breakerFailures, BreakerConfig{})
	b.onFailure()
	b.onFailure()
	b.onSuccess() // success resets the consecutive count
	b.onFailure()
	b.onFailure()
	if got := b.currentState(); got != breakerClosed {
		t.Fatalf("state after interrupted failures = %v, want closed", got)
	}
	b.onFailure()
	if got := b.currentState(); got != breakerOpen {
		t.Fatalf("state after 3 consecutive failures = %v, want open", got)
	}
	if b.allow() {
		t.Fatal("open breaker allowed a request")
	}
}

func TestBreakerHalfOpenTrialLifecycle(t *testing.T) {
	b, clk := testBreaker(1, BreakerConfig{OpenTimeout: 5 * time.Second})
	b.onFailure()
	if b.allow() {
		t.Fatal("freshly opened breaker allowed a request")
	}
	clk.advance(6 * time.Second)
	if !b.allow() {
		t.Fatal("breaker still rejecting after OpenTimeout")
	}
	if got := b.currentState(); got != breakerHalfOpen {
		t.Fatalf("state after timeout allow = %v, want half_open", got)
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent trial")
	}
	b.onSuccess()
	if got := b.currentState(); got != breakerClosed {
		t.Fatalf("state after successful trial = %v, want closed", got)
	}
	if !b.allow() {
		t.Fatal("closed breaker rejecting")
	}
}

func TestBreakerReopensOnFailedTrial(t *testing.T) {
	b, clk := testBreaker(1, BreakerConfig{OpenTimeout: 5 * time.Second})
	b.onFailure()
	clk.advance(6 * time.Second)
	if !b.allow() {
		t.Fatal("no trial granted")
	}
	b.onFailure()
	if got := b.currentState(); got != breakerOpen {
		t.Fatalf("state after failed trial = %v, want open", got)
	}
	// The timeout restarts from the failed trial.
	if b.allow() {
		t.Fatal("re-opened breaker allowed immediately")
	}
	clk.advance(6 * time.Second)
	if !b.allow() {
		t.Fatal("re-opened breaker never recovered")
	}
}

// Probe outcomes drive the breaker both ways: failures can open it with
// no data traffic at all, and a success grants an open breaker a
// half-open trial — but never closes it outright (gray failures:
// probe-green proves the process, not the data path).
func TestBreakerProbeDriven(t *testing.T) {
	b, _ := testBreaker(2, BreakerConfig{OpenTimeout: time.Hour})
	b.onProbeFailure()
	b.onProbeFailure()
	if got := b.currentState(); got != breakerOpen {
		t.Fatalf("state after probe failures = %v, want open", got)
	}
	b.onProbeSuccess()
	if got := b.currentState(); got != breakerHalfOpen {
		t.Fatalf("state after probe success = %v, want half_open (never straight to closed)", got)
	}
	if !b.allow() {
		t.Fatal("half-open breaker refused the trial")
	}
	b.onSuccess()
	if got := b.currentState(); got != breakerClosed {
		t.Fatalf("state after trial success = %v, want closed", got)
	}
}

func TestBreakerUnclaimReleasesTrial(t *testing.T) {
	b, clk := testBreaker(1, BreakerConfig{OpenTimeout: time.Second})
	b.onFailure()
	clk.advance(2 * time.Second)
	if !b.allow() {
		t.Fatal("no trial granted")
	}
	b.unclaim()
	if !b.allow() {
		t.Fatal("unclaimed trial slot not reusable")
	}
}

func TestRetryBudgetTokens(t *testing.T) {
	clk := newFakeClock()
	rb := newRetryBudget(1, clk.now) // 1 token/s, depth 2
	if !rb.take() || !rb.take() {
		t.Fatal("full bucket refused its burst")
	}
	if rb.take() {
		t.Fatal("empty bucket granted a token")
	}
	clk.advance(time.Second)
	if !rb.take() {
		t.Fatal("bucket did not refill")
	}
	// Refill is capped at the burst.
	clk.advance(time.Hour)
	if !rb.take() || !rb.take() {
		t.Fatal("refilled bucket refused its burst")
	}
	if rb.take() {
		t.Fatal("bucket overfilled past burst")
	}
}
