package market

import (
	"sync"
	"sync/atomic"
)

// workerPool fans one bidding round's per-class re-optimisations across a
// fixed set of goroutines. The §2.1 round is embarrassingly parallel: every
// player best-responds against the SAME broadcast prices and the SAME
// previous-round bid matrix, both read-only for the duration of the round,
// and writes only its own row of the next-round matrix.
//
// Determinism: workers claim blocks of the run's class representatives
// (Market.reps) from a shared atomic cursor, so the assignment of players to
// workers varies run to run — but the result does not. Player i's new bids
// depend only on (prices, its row of curBids, the player's utility and
// budget), its result lands in slot i, and each representative's memoizing
// utility is touched by exactly one goroutine per round (rounds are
// separated by the dispatch barrier, which establishes the happens-before
// edge between a player's consecutive owners; class members are not
// evaluated at all, and twins share only immutable state). The parallel
// engine is therefore bit-identical to the serial loop.
//
// The pool is created lazily by the first parallel round and pinned to its
// Market. Close the Market (or let the finalizer run) to release the
// goroutines.
type workerPool struct {
	workers int
	jobs    chan *poolRound
	stop    sync.Once
}

// claimBlock is how many consecutive representatives a worker takes per
// cursor bump.
// The hill climb rewrites its player's row of the next-bid matrix on every
// step, and rows are contiguous (four to a 64-byte line at two resources),
// so workers claiming neighbouring players ping-pong the line between
// cores. Eight rows cover a whole line at any resource count, which leaves
// only a block's boundary line shared (representatives are in index order,
// so a block's rows are at least that far apart). Measured at 64 distinct
// players, 2 vCPUs: one-player claims 717 µs per equilibrium (serial: 562),
// blocks 470 µs.
const claimBlock = 8

// poolRound is one round's shared dispatch state.
type poolRound struct {
	m      *Market
	prices []float64
	cursor atomic.Int64
	wg     sync.WaitGroup
}

// newWorkerPool spawns the goroutines, each with a private bidScratch sized
// to the market's resource count.
func newWorkerPool(workers, resources int) *workerPool {
	p := &workerPool{workers: workers, jobs: make(chan *poolRound)}
	for k := 0; k < workers; k++ {
		go func() {
			s := newBidScratch(resources)
			for r := range p.jobs {
				reps := r.m.reps
				for {
					lo := int(r.cursor.Add(claimBlock)) - claimBlock
					if lo >= len(reps) {
						break
					}
					for _, i := range reps[lo:min(lo+claimBlock, len(reps))] {
						r.m.reoptimize(i, r.prices, s)
					}
				}
				r.wg.Done()
			}
		}()
	}
	return p
}

// run executes one round and blocks until every player is re-optimised.
func (p *workerPool) run(m *Market, prices []float64) {
	r := &poolRound{m: m, prices: prices}
	r.wg.Add(p.workers)
	for k := 0; k < p.workers; k++ {
		p.jobs <- r
	}
	r.wg.Wait()
}

// close releases the worker goroutines. Safe to call more than once.
func (p *workerPool) close() {
	p.stop.Do(func() { close(p.jobs) })
}
