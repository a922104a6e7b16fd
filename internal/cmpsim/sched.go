package cmpsim

import "sync"

// This file is the epoch interleave machinery: the per-chip scratch state
// that keeps the epoch loop itself off the heap, the Bresenham walker that
// emits the cores' paced access streams in one canonical global order —
// core i's k-th access (k 0-based) lands at step ceil((k+1)·maxCount/counts[i])-1,
// and cores that share a step emit in ascending core index — and the
// pipeline that generates each chunk of those streams while the walker
// consumes the previous one.

// epochChunks is how many pieces an epoch's Bresenham steps are cut into:
// chunk k covers steps [chunkStep(k), chunkStep(k+1)), and its addresses are
// generated while the walker is still on chunk k-1.
const epochChunks = 32

// epochScratch is runEpoch's reusable working state. It is sized once on
// first use; afterwards the epoch loop allocates nothing of its own.
type epochScratch struct {
	counts  []int         // per-core paced access count this epoch
	rates   []float64     // per-core access rate, clamped to the sampling cap
	misses  []int         // per-core L2 misses this epoch
	credits []int         // per-core Bresenham accumulators
	cursor  []int         // per-core index of the next prefetched address
	bufs    [][]uint64    // per-core prefetched epoch addresses
	steps   int           // this epoch's Bresenham steps (the largest count)
	ready   chan struct{} // one token per generated chunk, producer → walker
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
	// Room for every token of an epoch, so a producer running on the
	// walker's own goroutine sends them all without blocking.
	s.ready = make(chan struct{}, epochChunks)
}

// chunkStep is the first Bresenham step of chunk k of an epoch of maxCount
// steps; chunkStep(epochChunks, maxCount) is maxCount.
func chunkStep(k, maxCount int) int { return k * maxCount / epochChunks }

// coreChunk returns the buffer indices [lo, hi) of a core's chunk-k
// addresses, for a core paced at count ≤ maxCount. Once the walker has run
// steps [0, step) the core's accumulator has gained step·count and wrapped
// at most once a step, so it has emitted ⌊step·count/maxCount⌋ addresses;
// the chunk's range lies between that count at its first and its end step.
func coreChunk(k, count, maxCount int) (lo, hi int) {
	return chunkStep(k, maxCount) * count / maxCount, chunkStep(k+1, maxCount) * count / maxCount
}

// producerHelpers is how many helper goroutines generate epochs for the
// whole process. One is what a lone chip uses, and on two cores a second
// changed neither a lone chip nor a sweep that already keeps both cores busy
// (DESIGN.md "Single-chip hot path"), so no count was measured to beat it.
const producerHelpers = 1

// producers hands a chip to an idle helper goroutine that generates its
// epoch. The helpers are started once per process, so an epoch spawns no
// goroutine of its own (a go statement would allocate its closure every
// epoch). They live as long as the process: an idle helper is parked on the
// receive, holds nothing, and no chip owns it to stop it.
var (
	producersOnce sync.Once
	producers     chan *Chip
)

func startProducers() {
	producers = make(chan *Chip)
	for range producerHelpers {
		go func() {
			for c := range producers {
				c.produce()
			}
		}()
	}
}

// pipeline runs one epoch of maxCount Bresenham steps. A helper generates
// the epoch's addresses chunk by chunk while this goroutine walks each chunk
// as soon as it is ready; if no helper is idle (other chips' epochs), this
// goroutine generates all chunks itself first and then walks them. Either
// way the walk is serial and in canonical order, and pipeline returns only
// after the producer's last signal, so no generator or monitor is in use
// once the epoch is over.
func (c *Chip) pipeline(maxCount int) {
	s := &c.scratch
	s.steps = maxCount
	producersOnce.Do(startProducers)
	select {
	case producers <- c:
	default:
		c.produce()
	}
	for k := 0; k < epochChunks; k++ {
		<-s.ready
		c.walk(chunkStep(k, maxCount), chunkStep(k+1, maxCount), maxCount)
	}
}

// produce generates every chunk of the epoch: for each core, the chunk's
// slice of its buffer is filled from its generator and fed to its monitor —
// both per-core state the walker never touches — and then the chunk's token
// is sent. A piecewise Fill draws exactly what one whole Fill would. The
// last send is produce's last access to the chip.
func (c *Chip) produce() {
	s := &c.scratch
	maxCount := s.steps
	for k := 0; k < epochChunks; k++ {
		for i, count := range s.counts {
			lo, hi := coreChunk(k, count, maxCount)
			if lo == hi {
				continue
			}
			buf := s.bufs[i][lo:hi]
			c.gens[i].Fill(buf)
			u := c.umons[i]
			for _, addr := range buf {
				u.Observe(addr)
			}
		}
		s.ready <- struct{}{}
	}
}

// emitAccess issues core i's next prefetched address to the shared L2 and —
// on a miss — the DRAM bank model.
func (c *Chip) emitAccess(i int) {
	s := &c.scratch
	addr := s.bufs[i][s.cursor[i]]
	s.cursor[i]++
	if !c.l2.Access(addr, c.shadowFor(i, addr)) {
		s.misses[i]++
		c.bankSim.Access(addr)
	}
}

// walk runs Bresenham steps [from, to) of every core: each core accumulates
// its count per step and emits when the accumulator wraps maxCount.
func (c *Chip) walk(from, to, maxCount int) {
	s := &c.scratch
	n := c.cfg.Cores
	for step := from; step < to; step++ {
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
