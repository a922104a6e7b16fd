package cache

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"rebudget/internal/numeric"
)

// line is one way of refCache's array-of-structs set.
type line struct {
	tag   uint64
	owner int32
	valid bool
	used  uint64 // global LRU timestamp
}

// refCache states the replacement rule of PartitionedCache as directly as it
// can be said — array-of-structs lines with a valid flag, candidates
// collected and ordered per miss, how far a partition is over quota
// recomputed wherever it is read. The production cache must agree with it
// access for access: same hit/miss verdicts, and the same line — tag, owner,
// validity — in every way of the set just accessed, so each victim choice is
// checked way for way. This pins the SoA layout, the used==0-means-invalid
// encoding, the maintained over/overKey and the masked two-pass victim scan
// with its way-carrying keys to one specification.
type refCache struct {
	ways      int
	lines     []line
	clock     uint64
	occupancy []int
	target    []float64
}

func newRefCache(cfg Config) *refCache {
	n := cfg.CapacityBytes / LineSize
	c := &refCache{ways: cfg.Ways, lines: make([]line, n), occupancy: make([]int, cfg.Partitions), target: make([]float64, cfg.Partitions)}
	for i := range c.target {
		c.target[i] = float64(n) / float64(cfg.Partitions)
	}
	return c
}

func (c *refCache) over(p int) float64 { return float64(c.occupancy[p]) - c.target[p] }

func (c *refCache) Access(addr uint64, owner int) bool {
	lineAddr := addr / LineSize
	sets := uint64(len(c.lines) / c.ways)
	set := c.lines[int(lineAddr%sets)*c.ways:][:c.ways]
	c.clock++
	for i := range set {
		if w := &set[i]; w.valid && w.tag == lineAddr/sets {
			c.occupancy[w.owner]--
			c.occupancy[owner]++
			w.owner, w.used = int32(owner), c.clock
			return true
		}
	}
	v := &set[c.victim(set, owner)]
	if v.valid {
		c.occupancy[v.owner]--
	}
	c.occupancy[owner]++
	*v = line{tag: lineAddr / sets, owner: int32(owner), valid: true, used: c.clock}
	return false
}

// victim is the rule in chooseVictim's doc comment.
func (c *refCache) victim(set []line, requester int) int {
	lru := make([]int, len(set)) // way indices, least recently used first
	for i := range set {
		if !set[i].valid {
			return i
		}
		lru[i] = i
	}
	sort.Slice(lru, func(a, b int) bool { return set[lru[a]].used < set[lru[b]].used })
	first := func(pred func(owner int) bool) int {
		for _, i := range lru {
			if pred(int(set[i].owner)) {
				return i
			}
		}
		return -1
	}
	bestOver := 0.0
	for _, w := range set {
		bestOver = math.Max(bestOver, c.over(int(w.owner)))
	}
	best := -1
	if bestOver > 0 {
		best = first(func(o int) bool { return c.over(o) == bestOver })
	}
	own := first(func(o int) bool { return o == requester })
	switch {
	case own != -1 && float64(c.occupancy[requester]) >= c.target[requester] &&
		(best == -1 || int(set[best].owner) == requester || c.over(requester) >= bestOver):
		return own
	case best != -1:
		return best
	case own != -1:
		return own
	}
	return lru[0]
}

// TestSoACacheMatchesReference runs the production cache against refCache
// under every target regime the simulator produces. Random real-valued
// targets alone never tie two different partitions on how far over quota
// they are, yet that is every warm-up epoch (equal targets, integer
// occupancies) — hence the equal and integer schemes, the zero targets, and
// geometries where most requesters hold no line in the set they miss in.
// The 64-way geometry is the widest the victim scan's keys can name; one
// more way is refused.
func TestSoACacheMatchesReference(t *testing.T) {
	if _, err := NewPartitioned(Config{CapacityBytes: 65 << 12, Ways: 65, Partitions: 1}); err == nil {
		t.Fatal("NewPartitioned accepted 65 ways")
	}
	for _, cfg := range []Config{
		{CapacityBytes: 256 << 10, Ways: 8, Partitions: 4},
		{CapacityBytes: 256 << 10, Ways: 16, Partitions: 16},
		{CapacityBytes: 128 << 10, Ways: 32, Partitions: 128},
		{CapacityBytes: 128 << 10, Ways: 64, Partitions: 16},
	} {
		t.Run(fmt.Sprintf("%dways_%dpartitions", cfg.Ways, cfg.Partitions), func(t *testing.T) {
			soa, err := NewPartitioned(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefCache(cfg)
			rng := numeric.NewRand(42)
			lines := cfg.CapacityBytes / LineSize
			// Retargeting mid-stream cycles the schemes; the first stretch
			// runs a cold cache on the constructor's equal-share default.
			schemes := []func(p int) float64{
				func(int) float64 { return rng.Float64() + 0.05 },       // real-valued, no ties
				func(int) float64 { return 1 },                          // equal, integer
				func(p int) float64 { return float64(p % 2) },           // every other target 0
				func(p int) float64 { return float64(1 + p%3) },         // a few integer levels
				func(p int) float64 { return float64(p / (2 + p) * 7) }, // all 0: global LRU only
				func(p int) float64 { return math.Ldexp(1, -(p % 40)) }, // mostly under one line
			}
			const steps, period = 300000, 20000
			misses := 0
			for step := 0; step < steps; step++ {
				if step > 0 && step%period == 0 {
					weight := schemes[(step/period-1)%len(schemes)]
					w := make([]float64, cfg.Partitions)
					total := 0.0
					for p := range w {
						w[p] = weight(p)
						total += w[p]
					}
					for p := range w {
						if total > 0 {
							w[p] = w[p] / total * float64(lines)
						}
					}
					if err := soa.SetTargets(w); err != nil {
						t.Fatal(err)
					}
					copy(ref.target, w)
				}
				// Address pool ~2x the cache so hits, cold misses and
				// capacity misses all occur; tag 0 (low addresses) included
				// deliberately — a zero tag is not an empty way.
				addr := (rng.Uint64() % uint64(2*lines)) * LineSize
				owner := int(rng.Uint64() % uint64(cfg.Partitions))
				got, want := soa.Access(addr, owner), ref.Access(addr, owner)
				if got != want {
					t.Fatalf("step %d: Access(%#x, %d) = %v, reference %v", step, addr, owner, got, want)
				}
				if !got {
					misses++
				}
				base := (int(addr/LineSize) & (soa.sets - 1)) * cfg.Ways
				for w, l := range ref.lines[base : base+cfg.Ways] {
					i := base + w
					if valid := soa.used[i] != 0; valid != l.valid || valid && (soa.tags[i] != l.tag || soa.owners[i] != l.owner) {
						t.Fatalf("step %d: set %d way %d: valid %v tag %#x owner %d, reference %+v",
							step, base/cfg.Ways, w, valid, soa.tags[i], soa.owners[i], l)
					}
				}
				for p, occ := range soa.occupancy {
					if occ != ref.occupancy[p] {
						t.Fatalf("step %d: occupancy[%d] = %d, reference %d", step, p, occ, ref.occupancy[p])
					}
					over := float64(occ) - soa.target[p]
					key := uint64(0)
					if over > 0 {
						key = math.Float64bits(over)
					}
					if math.Float64bits(soa.over[p]) != math.Float64bits(over) || soa.overKey[p] != key {
						t.Fatalf("step %d: partition %d: over %v key %#x, want %v %#x", step, p, soa.over[p], soa.overKey[p], over, key)
					}
				}
			}
			if misses == 0 || misses == steps {
				t.Fatalf("degenerate run: %d misses of %d accesses", misses, steps)
			}
		})
	}
}
