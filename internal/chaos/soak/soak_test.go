package soak

import (
	"context"
	"testing"
	"time"

	"rebudget/internal/e2e"
)

// TestSoakSeed7 is the whole soak under `go test`: the in-process tier rides
// out seed 7's partitions, shard kill, latency spike, snapshot corruption
// and mid-outage shard add with no session lost and every session's next
// epoch bit-identical to the undisturbed baseline. (That the schedule is a
// pure function of the seed is chaos.TestScheduleDeterministicAndWellFormed.)
func TestSoakSeed7(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var res Result
	if err := e2e.Run(ctx, "soak-test", func(h *e2e.Harness) { res = Run(h, 7) }); err != nil {
		t.Fatal(err) // a lost session, a diverged one, or a missing breaker/checksum signal
	}
	if res.Sessions != sessions || res.Identical != res.Sessions {
		t.Errorf("%d of %d sessions bit-identical to the baseline", res.Identical, res.Sessions)
	}
	if res.ErrorRate > maxErrorRate {
		t.Errorf("error rate %g above the %g bound", res.ErrorRate, maxErrorRate)
	}
	if len(Schedule(7)) == 0 {
		t.Error("seed 7 scheduled no chaos")
	}
}
