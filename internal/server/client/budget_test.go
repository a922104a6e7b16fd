//go:build !race

package client

import (
	"context"
	"net/http"
	"runtime"
	"testing"
)

// A decoded 64-core view costs the view itself and nothing else: no
// per-request decoder whose read buffer regrows to the size of the body,
// no marshalled {"epochs":1}, no reflection. The budget is 1.5 × what the
// view's own one-pass decoder measures (7 928 B per call); encoding/json's
// reflective decode into the same pooled buffer read 12 896 B, and the
// per-request json.Decoder before it 28 547 B on this compact 6.6 kB body.
// Heap bytes are deterministic here — no sockets, no timers — which is why
// this gates in tier-1. (The race detector changes what allocates; hence
// the build tag.)
func TestStepEpochByteBudget(t *testing.T) {
	const calls, budget = 200, 7928 * 3 / 2
	body := append(mustJSON(t, view64(t, 1)), '\n')
	c := stubClient(func(*http.Request) (*http.Response, error) { return okBody(body), nil })
	step := func() {
		if _, err := c.StepEpoch(context.Background(), "s"); err != nil {
			t.Fatal(err)
		}
	}
	step() // grow the pooled buffer once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("%d B allocated per StepEpoch of a %d B view", per, len(body))
	if per > budget {
		t.Fatalf("StepEpoch allocates %d B per call, budget %d B", per, budget)
	}
}
