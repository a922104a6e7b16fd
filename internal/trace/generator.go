package trace

import (
	"fmt"
	"math"

	"rebudget/internal/numeric"
)

// ComponentKind selects one of the built-in reuse behaviours a synthetic
// access stream is mixed from.
type ComponentKind int

const (
	// Geometric draws LRU stack distances from a geometric distribution
	// with the given mean (Param, in cache lines). It yields smooth,
	// concave miss-rate curves — the vpr-like behaviour in Figure 2.
	Geometric ComponentKind = iota
	// Cyclic sweeps a working set of Param lines in a fixed cyclic order.
	// Under LRU every access has stack distance ≈ Param, producing the
	// all-or-nothing cliff the paper shows for mcf (Figure 2).
	Cyclic
	// Streaming touches a new line on every access (compulsory misses
	// only); no cache capacity helps. This is the "N"-class floor.
	Streaming
)

// String implements fmt.Stringer for diagnostics.
func (k ComponentKind) String() string {
	switch k {
	case Geometric:
		return "geometric"
	case Cyclic:
		return "cyclic"
	case Streaming:
		return "streaming"
	default:
		return fmt.Sprintf("ComponentKind(%d)", int(k))
	}
}

// Component is one weighted behaviour in an access-stream mixture.
type Component struct {
	Kind   ComponentKind
	Weight float64 // relative probability of drawing from this component
	Param  float64 // mean reuse distance (Geometric) or working-set lines (Cyclic)
}

// Config describes a synthetic access stream.
type Config struct {
	LineSize int // bytes per cache line (power of two)
	Mix      []Component
	Seed     uint64
	// Namespace tags the high address bits so that streams from different
	// generators (e.g. different cores) never alias in a shared cache.
	Namespace uint8
}

// Stream is any source of memory addresses: a plain Generator or a
// PhasedGenerator.
type Stream interface {
	Next() uint64
	// Fill writes the next len(dst) addresses into dst, exactly as if
	// Next had been called that many times. Batch consumers (the cmpsim
	// epoch loop) use it to amortise call overhead and keep the
	// generator's working state hot across a whole epoch's draws.
	Fill(dst []uint64)
	LineSize() int
}

// Generator produces the address stream. Each component owns a disjoint
// block namespace; components interact only through cache capacity, exactly
// as independent data structures of one application would.
type Generator struct {
	cfg    Config
	rng    *numeric.Rand
	cum    []float64 // cumulative normalized weights
	states []componentState
}

type componentState struct {
	kind      ComponentKind
	param     float64
	logQ      float64   // Geometric only: log(param/(1+param)), the inverse-CDF divisor
	stack     *lruStack // Geometric only
	nextBlock uint64
	cyclePos  uint64
	base      uint64 // namespace tag in the high bits
}

// maxGeomStack bounds the footprint of a geometric component's bookkeeping.
const maxGeomStack = 1 << 20

// New validates cfg and returns a generator.
func New(cfg Config) (*Generator, error) {
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		return nil, fmt.Errorf("trace: line size %d is not a positive power of two", cfg.LineSize)
	}
	if len(cfg.Mix) == 0 {
		return nil, fmt.Errorf("trace: empty component mix")
	}
	total := 0.0
	for i, c := range cfg.Mix {
		if c.Weight < 0 || math.IsNaN(c.Weight) {
			return nil, fmt.Errorf("trace: component %d has invalid weight %g", i, c.Weight)
		}
		switch c.Kind {
		case Geometric, Cyclic:
			if c.Param < 1 {
				return nil, fmt.Errorf("trace: component %d (%v) needs Param >= 1, got %g", i, c.Kind, c.Param)
			}
		case Streaming:
		default:
			return nil, fmt.Errorf("trace: component %d has unknown kind %v", i, c.Kind)
		}
		total += c.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("trace: mixture weights sum to %g", total)
	}
	g := &Generator{cfg: cfg, rng: numeric.NewRand(cfg.Seed)}
	acc := 0.0
	for i, c := range cfg.Mix {
		acc += c.Weight / total
		g.cum = append(g.cum, acc)
		// Namespace and component tags sit at bits 40–47 and 32–39 so
		// that block × LineSize never overflows uint64 (block < 2^48,
		// addresses < 2^55). Each component still owns 2^32 lines.
		st := componentState{kind: c.Kind, param: c.Param, base: uint64(cfg.Namespace)<<40 | uint64(i+1)<<32}
		if c.Kind == Geometric {
			st.logQ = math.Log(c.Param / (1 + c.Param))
			st.stack = newLRUStack(g.rng.Split())
		}
		g.states = append(g.states, st)
	}
	g.cum[len(g.cum)-1] = 1 // guard against rounding
	return g, nil
}

// MustNew is New that panics on error, for statically known configurations.
func MustNew(cfg Config) *Generator {
	g, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Next returns the next memory address in the stream.
func (g *Generator) Next() uint64 {
	u := g.rng.Float64()
	idx := 0
	for idx < len(g.cum)-1 && u > g.cum[idx] {
		idx++
	}
	st := &g.states[idx]
	var block uint64
	switch st.kind {
	case Geometric:
		d := g.sampleGeometric(st.logQ)
		if d >= st.stack.Len() {
			block = st.base | st.nextBlock
			st.nextBlock++
			st.stack.PushFront(block)
			if st.stack.Len() > maxGeomStack {
				st.stack.DropBack()
			}
		} else {
			block = st.stack.Touch(d)
		}
	case Cyclic:
		block = st.base | st.cyclePos
		st.cyclePos++
		if st.cyclePos >= uint64(st.param) {
			st.cyclePos = 0
		}
	case Streaming:
		block = st.base | st.nextBlock
		st.nextBlock++
	}
	return block * uint64(g.cfg.LineSize)
}

// Fill writes the next len(dst) addresses into dst.
func (g *Generator) Fill(dst []uint64) {
	for i := range dst {
		dst[i] = g.Next()
	}
}

// sampleGeometric draws a stack distance from the geometric distribution
// whose log(q) is given, q = mean/(1+mean).
func (g *Generator) sampleGeometric(logQ float64) int {
	// P(d = k) = (1-q) q^k; inverse-CDF sampling.
	u := g.rng.Float64()
	if u <= 0 {
		return 0
	}
	d := int(math.Floor(math.Log(1-u) / logQ))
	if d < 0 {
		d = 0
	}
	return d
}

// MissRatio returns the analytic miss ratio of the stream through a
// fully-associative LRU cache with the given capacity in bytes, ignoring
// inter-component stack interference (each component judged against its own
// reuse distances). The measured ratio of a mixed stream is slightly higher
// because components displace each other; tests bound that gap.
func (g *Generator) MissRatio(capacityBytes int) float64 {
	lines := float64(capacityBytes / g.cfg.LineSize)
	total := 0.0
	for _, c := range g.cfg.Mix {
		total += c.Weight
	}
	miss := 0.0
	for _, c := range g.cfg.Mix {
		w := c.Weight / total
		switch c.Kind {
		case Geometric:
			q := c.Param / (1 + c.Param)
			miss += w * math.Pow(q, lines)
		case Cyclic:
			if lines < c.Param {
				miss += w
			}
		case Streaming:
			miss += w
		}
	}
	// Weight normalisation can leave 1+ulp residue; keep the ratio valid.
	return math.Min(math.Max(miss, 0), 1)
}

// LineSize returns the configured line size in bytes.
func (g *Generator) LineSize() int { return g.cfg.LineSize }
