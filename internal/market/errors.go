package market

import (
	"errors"
	"fmt"
)

// NotConvergedError reports that an equilibrium run stopped before prices
// settled within tolerance — the iteration fail-safe tripped (§6.4) or a
// round hook aborted the search.
// Partial always carries the complete last state (prices, bids,
// allocations, utilities, lambdas), so callers can degrade gracefully —
// install the best-effort equilibrium, fall back, or retry — instead of
// learning about the problem from a silently false Converged flag.
type NotConvergedError struct {
	// Partial is the full equilibrium state at the point the search
	// stopped; Partial.Converged is always false.
	Partial *Equilibrium
	// Reason says which budget stopped the run.
	Reason string
}

// Error implements error.
func (e *NotConvergedError) Error() string {
	return fmt.Sprintf("market: equilibrium not converged after %d iterations (%s)",
		e.Partial.Iterations, e.Reason)
}

// UtilityError reports a player utility that produced a non-finite value
// (NaN/Inf) during an equilibrium run — a corrupted monitor reading or a
// broken utility model. It is typed so hardened callers can classify the
// failure and sanitize or fall back rather than abort.
type UtilityError struct {
	Player  int
	Name    string
	Value   float64
	Context string // where the bad value surfaced ("utility", "lambda")
}

// Error implements error.
func (e *UtilityError) Error() string {
	return fmt.Sprintf("market: player %d (%s) %s is %v at its allocation",
		e.Player, e.Name, e.Context, e.Value)
}

// Settle unwraps a NotConvergedError into its partial equilibrium: callers
// that accept best-effort equilibria (the paper installs the fail-safe
// state and moves on, §6.4) get the pre-typed-error behaviour back, but now
// as an explicit policy choice at the call site. Any other error passes
// through unchanged.
func Settle(eq *Equilibrium, err error) (*Equilibrium, error) {
	var nc *NotConvergedError
	if errors.As(err, &nc) {
		return nc.Partial, nil
	}
	return eq, err
}
