package main

import (
	"strconv"

	"rebudget/internal/chaos/soak"
	"rebudget/internal/e2e"
)

// chaosScenario prints the fault schedule CHAOS_SEED implies and runs the
// in-process chaos soak under it (internal/chaos/soak holds the
// invariants). Everything derives from the seed, so a failure reproduces
// with `CHAOS_SEED=<n> make chaos-smoke`.
func chaosScenario(h *e2e.Harness) {
	seed := env(h, "CHAOS_SEED", 7, func(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) })
	for _, e := range soak.Schedule(seed) {
		h.Logf("%s", e)
	}
	soak.Run(h, seed)
}
