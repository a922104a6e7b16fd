// Package cache implements the shared last-level cache substrate the paper
// evaluates on: a set-associative, LRU, way-unconstrained cache partitioned
// at 128 kB "region" granularity by a Futility-Scaling-style controller
// (Wang & Chen, MICRO 2014), UMON shadow-tag monitors (Qureshi & Patt,
// MICRO 2006) limited to stack distance 16, and Talus convexification
// (Beckmann & Sanchez, HPCA 2015) via address-hashed shadow partitions.
package cache

import "fmt"

// Standard geometry constants used across the reproduction (Table 1).
const (
	// LineSize is the L2 line size in bytes.
	LineSize = 64
	// RegionBytes is the partitioning granularity (one cache region).
	RegionBytes = 128 << 10
	// LinesPerRegion is RegionBytes expressed in lines.
	LinesPerRegion = RegionBytes / LineSize
)

// Config sizes a partitioned cache.
type Config struct {
	CapacityBytes int // total capacity
	Ways          int // associativity
	Partitions    int // number of partition IDs (two per core when Talus is used)
}

// PartitionedCache is a set-associative LRU cache whose replacement policy
// biases evictions so that per-partition occupancies track per-partition
// line-count targets, emulating Futility Scaling's fine-grained partition
// enforcement without per-line futility counters.
//
// Line state is stored struct-of-arrays — parallel tags/used/owners slices
// indexed by set*ways+way — so the hit scan touches one dense uint64 run and
// the branchy victim scan reads each field as a contiguous stride instead of
// hopping 24-byte structs. A line is invalid exactly when used == 0: the
// clock pre-increments before the first access, so every resident line
// carries a non-zero timestamp.
type PartitionedCache struct {
	cfg       Config
	sets      int
	tagShift  uint // log2(sets): lineAddr >> tagShift == tag
	tags      []uint64
	used      []uint64 // global LRU timestamps; 0 marks an invalid line
	owners    []int32
	clock     uint64
	occupancy []int     // lines held per partition
	target    []float64 // line target per partition
	accesses  uint64
	misses    uint64
}

// NewPartitioned validates cfg and builds the cache.
func NewPartitioned(cfg Config) (*PartitionedCache, error) {
	if cfg.CapacityBytes <= 0 || cfg.Ways <= 0 || cfg.Partitions <= 0 {
		return nil, fmt.Errorf("cache: non-positive config %+v", cfg)
	}
	linesTotal := cfg.CapacityBytes / LineSize
	if linesTotal%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache: capacity %d not divisible into %d ways", cfg.CapacityBytes, cfg.Ways)
	}
	sets := linesTotal / cfg.Ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	c := &PartitionedCache{
		cfg:       cfg,
		sets:      sets,
		tagShift:  uint(log2(sets)),
		tags:      make([]uint64, linesTotal),
		used:      make([]uint64, linesTotal),
		owners:    make([]int32, linesTotal),
		occupancy: make([]int, cfg.Partitions),
		target:    make([]float64, cfg.Partitions),
	}
	// Default: equal share.
	for i := range c.target {
		c.target[i] = float64(linesTotal) / float64(cfg.Partitions)
	}
	return c, nil
}

// SetTargets installs per-partition line-count targets. Targets may be
// fractional; their sum should not exceed the cache's line count.
func (c *PartitionedCache) SetTargets(linesPerPartition []float64) error {
	if len(linesPerPartition) != c.cfg.Partitions {
		return fmt.Errorf("cache: %d targets for %d partitions", len(linesPerPartition), c.cfg.Partitions)
	}
	total := 0.0
	for i, t := range linesPerPartition {
		if t < 0 {
			return fmt.Errorf("cache: negative target for partition %d", i)
		}
		total += t
	}
	if total > float64(len(c.tags))*1.0001 {
		return fmt.Errorf("cache: targets total %.0f lines exceed capacity %d", total, len(c.tags))
	}
	copy(c.target, linesPerPartition)
	return nil
}

// Access looks up addr on behalf of partition owner, updating replacement
// state, and reports whether it hit.
func (c *PartitionedCache) Access(addr uint64, owner int) bool {
	lineAddr := addr / LineSize
	set := int(lineAddr) & (c.sets - 1)
	tag := lineAddr >> c.tagShift
	base := set * c.cfg.Ways
	c.clock++
	c.accesses++

	tags := c.tags[base : base+c.cfg.Ways]
	for i := range tags {
		if tags[i] == tag && c.used[base+i] != 0 {
			c.used[base+i] = c.clock
			// A hit migrates ownership: the line now serves this
			// partition's reuse. Keeping occupancy in sync matters
			// when targets shift between epochs.
			if o := c.owners[base+i]; int(o) != owner {
				c.occupancy[o]--
				c.occupancy[owner]++
				c.owners[base+i] = int32(owner)
			}
			return true
		}
	}
	c.misses++
	v := base + c.chooseVictim(base, owner)
	if c.used[v] != 0 {
		c.occupancy[c.owners[v]]--
	}
	c.tags[v] = tag
	c.owners[v] = int32(owner)
	c.used[v] = c.clock
	c.occupancy[owner]++
	return false
}

// chooseVictim implements the futility-scaling bias: evict the LRU line of
// the most over-quota partition present in the set; if every partition in
// the set is at or under quota, fall back to evicting the requester's own
// LRU line (if present) or the set's global LRU line. The choice reads
// global per-partition occupancy, which is why a single chip cannot be
// set-sharded across goroutines without changing results.
func (c *PartitionedCache) chooseVictim(base, requester int) int {
	used := c.used[base : base+c.cfg.Ways]
	owners := c.owners[base : base+c.cfg.Ways]
	bestIdx := -1
	bestOver := 0.0
	var bestUsed uint64
	ownIdx, globalIdx := -1, -1
	var ownUsed, globalUsed uint64
	for i := range used {
		u := used[i]
		if u == 0 {
			return i
		}
		o := owners[i]
		if globalIdx == -1 || u < globalUsed {
			globalIdx, globalUsed = i, u
		}
		if int(o) == requester && (ownIdx == -1 || u < ownUsed) {
			ownIdx, ownUsed = i, u
		}
		over := float64(c.occupancy[o]) - c.target[o]
		if over > 0 {
			if bestIdx == -1 || over > bestOver || (over == bestOver && u < bestUsed) {
				bestIdx, bestOver, bestUsed = i, over, u
			}
		}
	}
	// If the requester is over its own quota, it must feed on itself even
	// when other partitions are also over quota but less so.
	if float64(c.occupancy[requester]) >= c.target[requester] && ownIdx != -1 {
		if bestIdx == -1 || int(owners[bestIdx]) == requester ||
			float64(c.occupancy[requester])-c.target[requester] >= bestOver {
			return ownIdx
		}
	}
	if bestIdx != -1 {
		return bestIdx
	}
	if ownIdx != -1 {
		return ownIdx
	}
	return globalIdx
}

// Occupancy returns the current line count of each partition.
func (c *PartitionedCache) Occupancy() []int {
	out := make([]int, len(c.occupancy))
	copy(out, c.occupancy)
	return out
}

// Stats returns accesses and misses since construction.
func (c *PartitionedCache) Stats() (accesses, misses uint64) {
	return c.accesses, c.misses
}

// ResetStats clears the access/miss counters but keeps cache contents.
func (c *PartitionedCache) ResetStats() {
	c.accesses, c.misses = 0, 0
}

// Sets returns the number of sets.
func (c *PartitionedCache) Sets() int { return c.sets }

// TotalLines returns the cache capacity in lines.
func (c *PartitionedCache) TotalLines() int { return len(c.tags) }

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}
