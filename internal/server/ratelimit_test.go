package server_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/server"
	"rebudget/internal/server/client"
)

// With a per-session token bucket armed, epochs beyond the burst answer 429
// with a Retry-After hint, the bucket refills with wall-clock time, and the
// refusals are counted on /metrics.
func TestSessionRateLimit(t *testing.T) {
	// 1 epoch/s derives a burst of 2.
	_, c, _ := startDaemonWith(t, server.Config{SessionRPS: 1})
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, api.SessionSpec{
		ID: "rl", Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "equalshare",
	}); err != nil {
		t.Fatal(err)
	}

	// Burst of 2 is spendable immediately; the next epoch must be limited.
	for i := 0; i < 2; i++ {
		if _, err := c.StepEpoch(ctx, "rl"); err != nil {
			t.Fatalf("epoch %d within burst: %v", i, err)
		}
	}
	_, err := c.StepEpoch(ctx, "rl")
	if !client.IsBusy(err) {
		t.Fatalf("epoch beyond burst: want 429 backpressure, got %v", err)
	}
	ae := err.(*client.APIError)
	if ae.RetryAfter <= 0 {
		t.Fatalf("429 carried no Retry-After hint: %+v", ae)
	}
	if !strings.Contains(ae.Message, "rate limited") {
		t.Fatalf("unexpected 429 message: %q", ae.Message)
	}

	// A batch larger than the bucket can ever hold is also refused, not
	// split — n epochs cost n tokens up front.
	if _, err := c.StepEpochs(ctx, "rl", 50); !client.IsBusy(err) {
		t.Fatalf("oversized batch: want 429, got %v", err)
	}

	// The bucket refills with time: at 1 token/s, one epoch is affordable
	// within about a second.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.StepEpoch(ctx, "rl"); err == nil {
			break
		} else if !client.IsBusy(err) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("bucket never refilled")
		}
		time.Sleep(100 * time.Millisecond)
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, `reason="ratelimit"`) {
		t.Fatal("/metrics missing ratelimit rejection counter")
	}
}

// With no SessionRPS configured the bucket is unarmed: arbitrary batches
// pass and nothing is counted as rate limited.
func TestSessionRateLimitUnarmed(t *testing.T) {
	_, c, _ := startDaemonWith(t, server.Config{})
	ctx := context.Background()
	if _, err := c.CreateSession(ctx, api.SessionSpec{
		ID: "free", Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "equalshare",
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.StepEpochs(ctx, "free", 4); err != nil {
			t.Fatal(err)
		}
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(metrics, `reason="ratelimit"`) {
		t.Fatal("unarmed daemon counted a ratelimit rejection")
	}
}
