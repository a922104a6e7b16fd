// Package cache implements the shared last-level cache substrate the paper
// evaluates on: a set-associative, LRU, way-unconstrained cache partitioned
// at 128 kB "region" granularity by a Futility-Scaling-style controller
// (Wang & Chen, MICRO 2014), UMON shadow-tag monitors (Qureshi & Patt,
// MICRO 2006) limited to stack distance 16, and Talus convexification
// (Beckmann & Sanchez, HPCA 2015) via address-hashed shadow partitions.
package cache

import (
	"fmt"
	"math"
)

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
// the victim scan reads each field as a contiguous stride instead of hopping
// 24-byte structs. A line is invalid exactly when used == 0: the clock
// pre-increments before the first access, so every resident line carries a
// non-zero timestamp, and timestamps of resident lines are unique.
//
// How far each partition is over its quota is maintained, not recomputed per
// way: over[p] always equals float64(occupancy[p]) - target[p], and
// overKey[p] is its bit pattern when over[p] > 0 and 0 otherwise. Positive
// doubles order like their bit patterns, so the victim scan compares
// integers and never branches on a float. syncOver re-derives both wherever
// occupancy or target changes — at most two partitions per access.
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
	over      []float64 // float64(occupancy[p]) - target[p]
	overKey   []uint64  // Float64bits(over[p]) if over[p] > 0, else 0
}

// maxWays bounds the associativity: chooseVictim's keys hold a way index in
// their low wayBits bits, under the way's timestamp.
const (
	wayBits = 6
	maxWays = 1 << wayBits
)

// NewPartitioned validates cfg and builds the cache.
func NewPartitioned(cfg Config) (*PartitionedCache, error) {
	if cfg.CapacityBytes <= 0 || cfg.Ways <= 0 || cfg.Partitions <= 0 {
		return nil, fmt.Errorf("cache: non-positive config %+v", cfg)
	}
	if cfg.Ways > maxWays {
		return nil, fmt.Errorf("cache: %d ways exceed the %d the victim scan can name", cfg.Ways, maxWays)
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
		over:      make([]float64, cfg.Partitions),
		overKey:   make([]uint64, cfg.Partitions),
	}
	// Default: equal share.
	for i := range c.target {
		c.target[i] = float64(linesTotal) / float64(cfg.Partitions)
		c.syncOver(i)
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
	for i := range c.target {
		c.syncOver(i)
	}
	return nil
}

// syncOver re-derives over[p] and overKey[p] after occupancy[p] or target[p]
// changed.
func (c *PartitionedCache) syncOver(p int) {
	over := float64(c.occupancy[p]) - c.target[p]
	c.over[p] = over
	if over > 0 {
		c.overKey[p] = math.Float64bits(over)
	} else {
		c.overKey[p] = 0
	}
}

// Access looks up addr on behalf of partition owner, updating replacement
// state, and reports whether it hit.
func (c *PartitionedCache) Access(addr uint64, owner int) bool {
	lineAddr := addr / LineSize
	set := int(lineAddr) & (c.sets - 1)
	tag := lineAddr >> c.tagShift
	base := set * c.cfg.Ways
	c.clock++

	tags := c.tags[base : base+c.cfg.Ways]
	for i := range tags {
		if tags[i] == tag && c.used[base+i] != 0 {
			c.used[base+i] = c.clock
			// A hit migrates ownership: the line now serves this
			// partition's reuse. Keeping occupancy in sync matters
			// when targets shift between epochs.
			if o := int(c.owners[base+i]); o != owner {
				c.occupancy[o]--
				c.occupancy[owner]++
				c.owners[base+i] = int32(owner)
				c.syncOver(o)
				c.syncOver(owner)
			}
			return true
		}
	}
	v := base + c.chooseVictim(base, owner)
	if c.used[v] != 0 {
		o := int(c.owners[v])
		c.occupancy[o]--
		c.syncOver(o)
	}
	c.tags[v] = tag
	c.owners[v] = int32(owner)
	c.used[v] = c.clock
	c.occupancy[owner]++
	c.syncOver(owner)
	return false
}

// chooseVictim implements the futility-scaling bias: evict the LRU line of
// the most over-quota partition present in the set (partitions tied on how
// far over they are pool their lines); if every partition in the set is at
// or under quota, fall back to evicting the requester's own LRU line (if
// present) or the set's global LRU line. An invalid way, if any, is taken
// first, lowest index first. The choice reads global per-partition
// occupancy, which is why a single chip cannot be set-sharded across
// goroutines without changing results.
//
// The scan is two passes without a data-dependent branch. Pass A finds the
// largest overKey among the set's owners. Pass B keeps three running minima
// of a way's key, its timestamp shifted over its way index (used<<wayBits |
// way) — over all ways, over the requester's ways, over the ways of
// partitions at that largest overKey — by OR-ing an all-ones mask onto the
// keys that do not qualify. Timestamps of resident lines are unique, so
// keys order like timestamps, each minimum names its way in its low bits,
// and comparing two minima compares ways. An invalid way (timestamp 0) has
// its index as its key, so the lowest-indexed invalid way is the global
// minimum.
func (c *PartitionedCache) chooseVictim(base, requester int) int {
	used := c.used[base : base+c.cfg.Ways]
	owners := c.owners[base : base+c.cfg.Ways]
	overKey := c.overKey
	overReq := c.over[requester]

	var best uint64
	for _, o := range owners {
		best = max(best, overKey[o])
	}
	const none = ^uint64(0)
	global, own, top := none, none, none
	for i, u := range used {
		o := owners[i]
		k := u<<wayBits | uint64(i)
		global = min(global, k)
		own = min(own, k|nonZeroMask(uint64(int(o)^requester)))
		top = min(top, k|nonZeroMask(overKey[o]^best))
	}
	if best == 0 {
		top = none // nobody over quota: every way matched the zero key
	}

	victim := global
	switch {
	case global>>wayBits == 0:
		// An invalid way.
	case overReq >= 0 && own != none &&
		(top == none || top == own || overReq >= math.Float64frombits(best)):
		// If the requester is at or over its own quota, it must feed on
		// itself even when other partitions are also over quota but less
		// so.
		victim = own
	case top != none:
		victim = top
	case own != none:
		victim = own
	}
	return int(victim & (maxWays - 1))
}

// nonZeroMask returns all ones when x != 0 and zero when x == 0.
func nonZeroMask(x uint64) uint64 {
	return uint64(int64(x|-x) >> 63)
}

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
