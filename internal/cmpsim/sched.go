package cmpsim

// This file is the epoch interleave machinery: the per-chip scratch state
// that keeps the epoch loop itself off the heap, and the Bresenham walker
// that emits the cores' paced access streams in one canonical global order:
// core i's k-th access (k 0-based) lands at step ceil((k+1)·maxCount/counts[i])-1,
// and cores that share a step emit in ascending core index.

// epochScratch is runEpoch's reusable working state. It is sized once on
// first use; afterwards the epoch loop allocates nothing of its own.
type epochScratch struct {
	counts  []int      // per-core paced access count this epoch
	rates   []float64  // per-core raw access rate before joint scaling
	misses  []int      // per-core L2 misses this epoch
	credits []int      // per-core Bresenham accumulators
	cursor  []int      // per-core index of the next prefetched address
	bufs    [][]uint64 // per-core prefetched epoch addresses
}

func (s *epochScratch) ensure(n, maxAccesses int) {
	if s.counts != nil {
		return
	}
	s.counts = make([]int, n)
	s.rates = make([]float64, n)
	s.misses = make([]int, n)
	s.credits = make([]int, n)
	s.cursor = make([]int, n)
	s.bufs = make([][]uint64, n)
	backing := make([]uint64, n*maxAccesses)
	for i := range s.bufs {
		s.bufs[i] = backing[i*maxAccesses : (i+1)*maxAccesses : (i+1)*maxAccesses]
	}
}

// emitAccess issues core i's next prefetched address to its monitor, the
// shared L2 and — on a miss — the DRAM bank model.
func (c *Chip) emitAccess(i int) {
	s := &c.scratch
	addr := s.bufs[i][s.cursor[i]]
	s.cursor[i]++
	c.umons[i].Observe(addr)
	if !c.l2.Access(addr, c.shadowFor(i, addr)) {
		s.misses[i]++
		c.bankSim.Access(addr)
	}
}

// interleave walks every (step, core) pair: each core accumulates its count
// per step and emits when the accumulator wraps maxCount.
func (c *Chip) interleave(maxCount int) {
	s := &c.scratch
	n := c.cfg.Cores
	for i := 0; i < n; i++ {
		s.credits[i] = 0
	}
	for step := 0; step < maxCount; step++ {
		for i := 0; i < n; i++ {
			s.credits[i] += s.counts[i]
			if s.credits[i] < maxCount {
				continue
			}
			s.credits[i] -= maxCount
			c.emitAccess(i)
		}
	}
}
