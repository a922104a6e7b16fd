package cache

import "fmt"

// UMON is a sampled shadow-tag utility monitor in the style of Qureshi &
// Patt's UMON-DSS. It observes one core's L2 access stream and estimates the
// miss-rate curve that core would see if it ran alone in a cache of
// 1..MaxRegions regions. The stack distance is capped (16 regions in the
// paper, i.e. 128 kB–2 MB) and sets are sampled at a fixed rate to keep the
// hardware budget under 1% of the L2 (§5.1).
type UMON struct {
	maxRegions  int
	sampleShift uint       // sample sets where (set % 2^shift) == 0
	sets        int        // shadow sets modelled (full, pre-sampling)
	setMask     uint64     // sets-1: lineAddr & setMask == set (sets is a power of two)
	setShift    uint       // log2(sets): lineAddr >> setShift == tag
	sampleMask  uint64     // rejects unsampled accesses with one AND on lineAddr
	tags        [][]uint64 // per sampled set: LRU-ordered tags, MRU first
	hits        []uint64   // hits at region stack distance d (0-based)
	missed      uint64
	total       uint64
}

// NewUMON builds a monitor covering capacities up to maxRegions regions,
// sampling one in 2^sampleShift shadow sets.
func NewUMON(maxRegions int, sampleShift uint) (*UMON, error) {
	if maxRegions < 1 {
		return nil, fmt.Errorf("cache: UMON needs maxRegions >= 1, got %d", maxRegions)
	}
	if sampleShift > 16 {
		return nil, fmt.Errorf("cache: UMON sample shift %d too large", sampleShift)
	}
	// The shadow structure models a cache with one region per "way":
	// LinesPerRegion sets of maxRegions-associativity fully cover one
	// region per stack-distance column.
	u := &UMON{
		maxRegions:  maxRegions,
		sampleShift: sampleShift,
		sets:        LinesPerRegion,
		setMask:     LinesPerRegion - 1, // LinesPerRegion is a power of two
		setShift:    uint(log2(LinesPerRegion)),
		sampleMask:  (1 << sampleShift) - 1,
		hits:        make([]uint64, maxRegions),
	}
	sampled := u.sets >> sampleShift
	if sampled == 0 {
		return nil, fmt.Errorf("cache: sample shift %d leaves no sampled sets", sampleShift)
	}
	u.tags = make([][]uint64, sampled)
	return u, nil
}

// Observe feeds one access (full byte address) to the monitor.
func (u *UMON) Observe(addr uint64) {
	// Sampling rejects all but one in 2^sampleShift sets; since the set is
	// the low setShift bits of the line address, the reject test needs only
	// the low sample bits — the hot path is one shift and one AND.
	lineAddr := addr / LineSize
	if lineAddr&u.sampleMask != 0 {
		return
	}
	set := int(lineAddr & u.setMask)
	u.total++
	idx := set >> u.sampleShift
	tag := lineAddr >> u.setShift
	list := u.tags[idx]
	for i, t := range list {
		if t == tag {
			u.hits[i]++
			// Move to MRU position.
			copy(list[1:i+1], list[:i])
			list[0] = tag
			return
		}
	}
	u.missed++
	if len(list) < u.maxRegions {
		list = append(list, 0)
	}
	copy(list[1:], list)
	list[0] = tag
	u.tags[idx] = list
}

// Curve returns the estimated miss-rate curve for 0..maxRegions regions.
// With no observations the curve is pessimistically all-miss.
func (u *UMON) Curve() *MissCurve {
	ratio := make([]float64, u.maxRegions+1)
	if u.total == 0 {
		for i := range ratio {
			ratio[i] = 1
		}
		mc, _ := NewMissCurve(ratio)
		return mc
	}
	misses := u.missed
	for d := u.maxRegions - 1; d >= 0; d-- {
		misses += u.hits[d]
		ratio[d] = float64(misses) / float64(u.total)
	}
	// ratio[r] currently holds misses for capacity r regions: a cache of r
	// regions hits stack distances < r. ratio[maxRegions] = cold misses.
	ratio[u.maxRegions] = float64(u.missed) / float64(u.total)
	mc, _ := NewMissCurve(ratio)
	return mc
}

// Reset clears counters but keeps shadow tags warm, matching how the
// hardware monitor is drained every scheduling epoch.
func (u *UMON) Reset() {
	for i := range u.hits {
		u.hits[i] = 0
	}
	u.missed, u.total = 0, 0
}

// Clear wipes counters AND shadow tags — used on a context switch, when
// the monitored process changes and stale reuse history would poison the
// next utility estimate.
func (u *UMON) Clear() {
	u.Reset()
	for i := range u.tags {
		u.tags[i] = nil
	}
}
