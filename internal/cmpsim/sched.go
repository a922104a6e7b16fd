package cmpsim

// This file is the epoch interleave machinery: the per-chip scratch state
// that keeps the epoch loop itself off the heap, and two schedulers that
// emit the cores' paced access streams in one canonical global order.
//
// The canonical order is the one the original Bresenham loop produced: core
// i's k-th access (k 0-based) lands at step ceil((k+1)·maxCount/counts[i])-1,
// and cores that share a step emit in ascending core index. The dense
// scheduler walks every (step, core) pair — O(maxCount × cores), ideal when
// most cores emit most steps. The sparse scheduler keeps one pending
// (step, core) key per core in a binary min-heap and jumps straight from
// emission to emission — O(total × log cores), which wins when counts are
// skewed and the dense inner loop would be mostly skips. Both produce the
// identical emission sequence (a pinned test forces each and compares), so
// the auto heuristic is free to pick by cost without touching results.

// schedMode forces an interleave scheduler; tests use it to pin dense/sparse
// equivalence. The zero value picks by estimated cost.
type schedMode int

const (
	schedAuto schedMode = iota
	schedDense
	schedSparse
)

// epochScratch is runEpoch's reusable working state. It is sized once on
// first use; afterwards the epoch loop allocates nothing of its own.
type epochScratch struct {
	counts  []int      // per-core paced access count this epoch
	rates   []float64  // per-core raw access rate before joint scaling
	misses  []int      // per-core L2 misses this epoch
	credits []int      // dense scheduler's Bresenham accumulators
	cursor  []int      // per-core index of the next prefetched address
	bufs    [][]uint64 // per-core prefetched epoch addresses
	heap    []uint64   // sparse scheduler's pending (step, core) keys
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
	s.heap = make([]uint64, 0, n)
	s.bufs = make([][]uint64, n)
	backing := make([]uint64, n*maxAccesses)
	for i := range s.bufs {
		s.bufs[i] = backing[i*maxAccesses : (i+1)*maxAccesses : (i+1)*maxAccesses]
	}
}

// emitAccess issues core i's next prefetched address to its monitor, the
// shared L2 and — on a miss — the DRAM bank model. Emission order across
// cores is the schedulers' responsibility; this body is shared so both
// produce byte-identical side effects.
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

// interleaveDense is the Bresenham-style scheduler: every core accumulates
// its count per step and emits when the accumulator wraps maxCount.
func (c *Chip) interleaveDense(maxCount int) {
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

// stepKey encodes core i's k-th emission as step·n + i, so ascending key
// order is exactly the dense scheduler's (step, core index) order.
func stepKey(k, count, maxCount, n, i int) uint64 {
	step := ((k+1)*maxCount - 1) / count // ceil((k+1)·maxCount/count) − 1
	return uint64(step)*uint64(n) + uint64(i)
}

// interleaveSparse is the next-event scheduler: a binary min-heap holds each
// active core's next emission key and the loop hops emission to emission,
// never visiting the (step, core) pairs that would have been skips.
func (c *Chip) interleaveSparse(maxCount int) {
	s := &c.scratch
	n := c.cfg.Cores
	h := s.heap[:0]
	for i := 0; i < n; i++ {
		if s.counts[i] > 0 {
			h = heapPush(h, stepKey(0, s.counts[i], maxCount, n, i))
		}
	}
	for len(h) > 0 {
		i := int(h[0] % uint64(n))
		c.emitAccess(i)
		if k := s.cursor[i]; k < s.counts[i] {
			// Replace the top in place with this core's next emission and
			// restore the heap; the new key is strictly larger.
			h[0] = stepKey(k, s.counts[i], maxCount, n, i)
			heapSiftDown(h, 0)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			if len(h) > 0 {
				heapSiftDown(h, 0)
			}
		}
	}
	s.heap = h
}

func heapPush(h []uint64, v uint64) []uint64 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapSiftDown(h []uint64, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r] < h[l] {
			m = r
		}
		if h[i] <= h[m] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
