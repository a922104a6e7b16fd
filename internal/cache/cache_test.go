package cache

import (
	"math"
	"slices"
	"testing"

	"rebudget/internal/trace"
)

func TestNewPartitionedValidation(t *testing.T) {
	if _, err := NewPartitioned(Config{CapacityBytes: 0, Ways: 16, Partitions: 2}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewPartitioned(Config{CapacityBytes: 1 << 20, Ways: 0, Partitions: 2}); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := NewPartitioned(Config{CapacityBytes: 1 << 20, Ways: 16, Partitions: 0}); err == nil {
		t.Error("zero partitions accepted")
	}
	if _, err := NewPartitioned(Config{CapacityBytes: 3 << 19, Ways: 16, Partitions: 2}); err == nil {
		t.Error("non-power-of-two set count accepted")
	}
	c, err := NewPartitioned(Config{CapacityBytes: 4 << 20, Ways: 16, Partitions: 8})
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if c.sets != 4096 {
		t.Errorf("sets = %d, want 4096", c.sets)
	}
	if c.TotalLines() != 65536 {
		t.Errorf("lines = %d, want 65536", c.TotalLines())
	}
}

func TestSetTargetsValidation(t *testing.T) {
	c, _ := NewPartitioned(Config{CapacityBytes: 1 << 20, Ways: 16, Partitions: 2})
	if err := c.SetTargets([]float64{100}); err == nil {
		t.Error("wrong target count accepted")
	}
	if err := c.SetTargets([]float64{-1, 100}); err == nil {
		t.Error("negative target accepted")
	}
	if err := c.SetTargets([]float64{1e9, 1e9}); err == nil {
		t.Error("over-capacity targets accepted")
	}
	if err := c.SetTargets([]float64{8192, 8192}); err != nil {
		t.Errorf("valid targets rejected: %v", err)
	}
}

func TestLRUWithinWorkingSet(t *testing.T) {
	// Single partition, working set smaller than capacity: after warmup
	// everything hits.
	c, _ := NewPartitioned(Config{CapacityBytes: 1 << 20, Ways: 16, Partitions: 1})
	const lines = 4096 // 256 kB working set in a 1 MB cache
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i*LineSize), 0)
		}
	}
	for i := 0; i < lines; i++ {
		if !c.Access(uint64(i*LineSize), 0) {
			t.Fatalf("unexpected miss on warm line %d", i)
		}
	}
}

func TestThrashingBeyondCapacity(t *testing.T) {
	// Cyclic sweep over 2× capacity in a direct-mapped-ish pattern should
	// miss every time under LRU.
	c, _ := NewPartitioned(Config{CapacityBytes: 1 << 20, Ways: 16, Partitions: 1})
	lines := 2 * c.TotalLines()
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i*LineSize), 0)
		}
	}
	miss := 0
	for i := 0; i < lines; i++ {
		if !c.Access(uint64(i*LineSize), 0) {
			miss++
		}
	}
	if float64(miss)/float64(lines) < 0.99 {
		t.Errorf("cyclic thrash miss ratio = %g, want ~1", float64(miss)/float64(lines))
	}
}

func TestPartitionConvergesToTargets(t *testing.T) {
	c, _ := NewPartitioned(Config{CapacityBytes: 2 << 20, Ways: 16, Partitions: 2})
	total := float64(c.TotalLines())
	// 75/25 split.
	if err := c.SetTargets([]float64{0.75 * total, 0.25 * total}); err != nil {
		t.Fatal(err)
	}
	// Both partitions stream over huge working sets, demanding all the
	// cache they can get.
	g0 := trace.MustNew(trace.Config{LineSize: 64, Mix: []trace.Component{{Kind: trace.Cyclic, Weight: 1, Param: 1 << 17}}, Seed: 1, Namespace: 1})
	g1 := trace.MustNew(trace.Config{LineSize: 64, Mix: []trace.Component{{Kind: trace.Cyclic, Weight: 1, Param: 1 << 17}}, Seed: 2, Namespace: 2})
	for i := 0; i < 600000; i++ {
		c.Access(g0.Next(), 0)
		c.Access(g1.Next(), 1)
	}
	occ := slices.Clone(c.occupancy)
	got0 := float64(occ[0]) / total
	if math.Abs(got0-0.75) > 0.05 {
		t.Errorf("partition 0 occupancy = %.3f of cache, want 0.75±0.05", got0)
	}
	if occ[0]+occ[1] != c.TotalLines() {
		t.Errorf("occupancies %v do not fill the cache (%d lines)", occ, c.TotalLines())
	}
}

func TestPartitionRetargetingShiftsOccupancy(t *testing.T) {
	c, _ := NewPartitioned(Config{CapacityBytes: 1 << 20, Ways: 16, Partitions: 2})
	total := float64(c.TotalLines())
	drive := func(n int, seedBase uint64) {
		g0 := trace.MustNew(trace.Config{LineSize: 64, Mix: []trace.Component{{Kind: trace.Cyclic, Weight: 1, Param: 1 << 16}}, Seed: seedBase, Namespace: 1})
		g1 := trace.MustNew(trace.Config{LineSize: 64, Mix: []trace.Component{{Kind: trace.Cyclic, Weight: 1, Param: 1 << 16}}, Seed: seedBase + 1, Namespace: 2})
		for i := 0; i < n; i++ {
			c.Access(g0.Next(), 0)
			c.Access(g1.Next(), 1)
		}
	}
	c.SetTargets([]float64{0.9 * total, 0.1 * total})
	drive(300000, 1)
	occA := slices.Clone(c.occupancy)
	c.SetTargets([]float64{0.1 * total, 0.9 * total})
	drive(300000, 10)
	occB := slices.Clone(c.occupancy)
	if occB[0] >= occA[0] {
		t.Errorf("partition 0 did not shrink after retarget: %d -> %d", occA[0], occB[0])
	}
	if math.Abs(float64(occB[1])/total-0.9) > 0.05 {
		t.Errorf("partition 1 occupancy after retarget = %.3f, want 0.9±0.05", float64(occB[1])/total)
	}
}

func TestPartitionIsolation(t *testing.T) {
	// A small, cache-friendly partition must keep hitting even while a
	// streaming partition floods the cache.
	c, _ := NewPartitioned(Config{CapacityBytes: 1 << 20, Ways: 16, Partitions: 2})
	total := float64(c.TotalLines())
	c.SetTargets([]float64{0.5 * total, 0.5 * total})
	friendly := trace.MustNew(trace.Config{LineSize: 64, Mix: []trace.Component{{Kind: trace.Cyclic, Weight: 1, Param: 2048}}, Seed: 3, Namespace: 1})
	hostile := trace.MustNew(trace.Config{LineSize: 64, Mix: []trace.Component{{Kind: trace.Streaming, Weight: 1}}, Seed: 4, Namespace: 2})
	// Warm up.
	for i := 0; i < 200000; i++ {
		c.Access(friendly.Next(), 0)
		c.Access(hostile.Next(), 1)
	}
	hits, accs := 0, 0
	for i := 0; i < 100000; i++ {
		if c.Access(friendly.Next(), 0) {
			hits++
		}
		accs++
		c.Access(hostile.Next(), 1)
	}
	hitRatio := float64(hits) / float64(accs)
	if hitRatio < 0.95 {
		t.Errorf("friendly partition hit ratio = %.3f under streaming pressure, want >= 0.95", hitRatio)
	}
}

func TestOwnershipMigrationKeepsOccupancyConsistent(t *testing.T) {
	c, _ := NewPartitioned(Config{CapacityBytes: 1 << 20, Ways: 16, Partitions: 2})
	// Same addresses accessed by both partitions.
	for i := 0; i < 10000; i++ {
		c.Access(uint64(i%512)*LineSize, 0)
		c.Access(uint64(i%512)*LineSize, 1)
	}
	occ := slices.Clone(c.occupancy)
	sum := occ[0] + occ[1]
	// Occupancy must equal the number of valid lines (512 distinct lines).
	if sum != 512 {
		t.Errorf("occupancy sum = %d, want 512", sum)
	}
}

// TestColdMissesThenWarmHits: a first touch of each line misses, a second
// hits.
func TestColdMissesThenWarmHits(t *testing.T) {
	c, _ := NewPartitioned(Config{CapacityBytes: 1 << 20, Ways: 16, Partitions: 1})
	for pass, want := range []bool{false, true} {
		for i := 0; i < 100; i++ {
			if got := c.Access(uint64(i)*LineSize, 0); got != want {
				t.Fatalf("pass %d: Access(line %d) = %v, want %v", pass, i, got, want)
			}
		}
	}
}
