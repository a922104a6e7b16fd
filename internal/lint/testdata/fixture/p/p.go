// Package p holds one case of each kind the analyser must tell apart.
package p

import "fixture/q"

// Config has a field its default copies from a parameter (Cores), one only
// its default sets (Fixed), and a wire field nothing reads (Label).
type Config struct {
	Cores int
	Fixed float64
	Label string `json:"label"`
}

func DefaultConfig(cores int) Config { return Config{Cores: cores, Fixed: 0.5} }

// Spec is held to Config's rule: Name has a writer besides its default,
// Depth only its default.
type Spec struct {
	Name  string
	Depth int
}

func (s Spec) withDefaults() Spec {
	if s.Depth == 0 {
		s.Depth = 4
	}
	return s
}

func Run(c Config, s Spec) float64 {
	var t tally
	s = s.withDefaults()
	return q.Scale(float64(t.note(c.Cores)+len(s.Name)+s.Depth) * c.Fixed)
}

func dead() int { return onlyFromDead() }

func onlyFromDead() int { return 1 }

// onlyTested is called from a Test function, which is not a use.
func onlyTested() int { return 2 }

// FromExample is called only from an Example, which is a use.
func FromExample() int { return 3 }

type unusedField struct{ n int }

// tally's counts and hits are only stored into, which is no use; last is
// stored and read.
type tally struct {
	counts counts
	hits   int
	last   int
}

type counts struct{ calls int }

func (t *tally) note(v int) int {
	t.counts.calls++
	t.hits += v
	t.last = v
	return t.last
}

type stage interface {
	Begin()
	End()
}

// Base alone does not implement stage; Outer does through it, so Begin is
// used by promotion.
type Base struct{}

func (Base) Begin() {}

type Outer struct{ Base }

func (Outer) End() {}

// Name implements the standard library's fmt.Stringer.
type Name string

func (n Name) String() string { return string(n) }

// fromInternalExample is called only from an Example in the package's own
// test files, which is a use.
func fromInternalExample() int { return 4 }
