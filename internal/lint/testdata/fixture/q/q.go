// Package q is imported by p only, so cmd/tool depends on it through p.
package q

func Scale(v float64) float64 { return v }
