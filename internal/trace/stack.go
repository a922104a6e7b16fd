// Package trace generates synthetic memory-access streams whose LRU
// stack-distance profiles follow specified mixtures of reuse behaviours.
// The streams stand in for the SPEC CPU2000/2006 SimPoint regions the paper
// drives SESC with: allocation mechanisms observe applications only through
// the miss-rate curves and access streams these generators produce, so
// matching the curve *shapes* (smooth concave reuse, working-set cliffs,
// streaming) reproduces the allocation dynamics of the paper's workloads.
package trace

import (
	"slices"

	"rebudget/internal/numeric"
)

const (
	// stackChunkCap sizes the contiguous runs an lruStack is stored in.
	// Larger chunks mean fewer hops to reach a given depth but longer
	// memmoves on every removal; 256 (a 2 kB run) balances the two for the
	// geometric reuse distances the generators draw.
	stackChunkCap = 256
	// stackMinFill is the fill every chunk but the front and the last is
	// held to: a removal that leaves a chunk below it merges the chunk into
	// a neighbour or refills it from one. It bounds the chunk count by
	// Len()/stackMinFill + 2, and so the depth walk and the backing memory.
	stackMinFill = 64
	// stackSpareCap bounds the free list of emptied chunk backings. An
	// epoch splits the front chunk a few hundred times and merges about as
	// often, in bursts; one slot sent every second backing to the GC.
	stackSpareCap = 32
)

// lruStack is an order-statistic list over block IDs ordered by recency
// (depth 0 = most recently used). It supports the three operations a
// stack-distance trace generator needs: fetch the block at a given depth,
// move it to the front, and push a brand-new block.
//
// The representation is a list of contiguous chunks, hottest chunk first,
// each stored MRU-last: pushing a block is an append to the front chunk, and
// touching depth d inside the front chunk — the common case for geometric
// reuse — moves d words and never leaves it. Reaching a deeper block walks
// the dense lens index (4 bytes a hop), removes the block from its chunk and
// appends it to the front. The logical LRU order is the only thing
// Touch/At/PushFront/DropBack expose, so streams are bit-identical to those
// of the plain-slice reference model the tests keep.
//
// Removals would otherwise shave cold chunks down to a couple of entries
// each (splits without merges: a linked list of 2 kB nodes), so compact
// restores the stackMinFill invariant after every one. Emptied backings go
// through the spare list; a stack whose length has stopped growing performs
// no allocation, and a growing one takes one backing per stackChunkCap/2
// new blocks at most.
type lruStack struct {
	chunks [][]uint64 // hottest chunk first; within a chunk MRU is last; none empty
	lens   []int32    // lens[i] == len(chunks[i]), read by the depth walk
	total  int
	spare  [][]uint64 // recycled backings, at most stackSpareCap
}

// newLRUStack returns an empty stack. The rng parameter is unused since the
// treap representation was replaced, but the signature is kept so that
// callers still consume an rng split per stack — Generator seeding depends
// on that draw sequence for bit-identical streams.
func newLRUStack(_ *numeric.Rand) *lruStack {
	return &lruStack{}
}

// Len returns the number of blocks on the stack.
func (s *lruStack) Len() int { return s.total }

// locate returns the chunk holding depth d and the block's index in it.
func (s *lruStack) locate(d int) (ci, j int) {
	lens := s.lens
	for d >= int(lens[ci]) {
		d -= int(lens[ci])
		ci++
	}
	return ci, int(lens[ci]) - 1 - d
}

// Touch moves the block at depth d to the front and returns it.
func (s *lruStack) Touch(d int) uint64 {
	ci, j := s.locate(d)
	c := s.chunks[ci]
	block := c[j]
	copy(c[j:], c[j+1:])
	if ci == 0 {
		c[len(c)-1] = block
		return block
	}
	s.chunks[ci] = c[:len(c)-1]
	s.lens[ci]--
	s.total--
	if len(c)-1 < stackMinFill {
		s.compact(ci)
	}
	s.PushFront(block)
	return block
}

// PushFront inserts a new block at depth 0.
func (s *lruStack) PushFront(block uint64) {
	s.total++
	if len(s.chunks) == 0 {
		s.insertChunk(0, append(s.grabChunk(), block))
		return
	}
	front := s.chunks[0]
	if len(front) == cap(front) {
		// Split the full front chunk: its colder half moves to a fresh
		// chunk inserted right behind and the hot half slides down — once
		// per stackChunkCap/2 pushes.
		half := len(front) / 2
		s.insertChunk(1, append(s.grabChunk(), front[:half]...))
		front = front[:copy(front, front[half:])]
	}
	s.chunks[0] = append(front, block)
	s.lens[0] = int32(len(front) + 1)
}

// DropBack removes the least-recently-used block (used to bound memory for
// streaming components whose footprint would otherwise grow without limit).
func (s *lruStack) DropBack() {
	if s.total == 0 {
		return
	}
	last := len(s.chunks) - 1
	c := s.chunks[last]
	c = c[:copy(c, c[1:])]
	s.chunks[last] = c
	s.lens[last]--
	s.total--
	if len(c) == 0 {
		s.removeChunk(last)
	}
}

// compact restores the fill invariant after a removal left chunk ci ≥ 1
// under stackMinFill: fold it onto its colder neighbour, else onto its
// warmer one, when the two fit one backing; failing both, refill it with the
// colder neighbour's hottest entries. The last chunk has no colder
// neighbour and is allowed to stay small.
func (s *lruStack) compact(ci int) {
	c := s.chunks[ci]
	if ci+1 < len(s.chunks) {
		if cold := s.chunks[ci+1]; len(cold)+len(c) <= stackChunkCap {
			s.setChunk(ci+1, append(cold, c...))
			s.removeChunk(ci)
			return
		}
	}
	if warm := s.chunks[ci-1]; len(warm)+len(c) <= stackChunkCap {
		s.setChunk(ci, append(c, warm...))
		s.removeChunk(ci - 1)
		return
	}
	if ci+1 < len(s.chunks) {
		// Neither fits, so the colder chunk holds more than
		// stackChunkCap-stackMinFill entries: level the two.
		cold := s.chunks[ci+1]
		k := (len(cold) - len(c)) / 2
		n := len(c)
		c = c[:n+k]
		copy(c[k:], c[:n])
		copy(c, cold[len(cold)-k:])
		s.setChunk(ci, c)
		s.setChunk(ci+1, cold[:len(cold)-k])
	}
}

func (s *lruStack) setChunk(ci int, c []uint64) {
	s.chunks[ci] = c
	s.lens[ci] = int32(len(c))
}

// insertChunk places c at index ci of the chunk list.
func (s *lruStack) insertChunk(ci int, c []uint64) {
	s.chunks = slices.Insert(s.chunks, ci, c)
	s.lens = slices.Insert(s.lens, ci, int32(len(c)))
}

// removeChunk deletes the chunk at index ci, recycling its backing.
func (s *lruStack) removeChunk(ci int) {
	if len(s.spare) < stackSpareCap {
		s.spare = append(s.spare, s.chunks[ci][:0])
	}
	s.chunks = slices.Delete(s.chunks, ci, ci+1)
	s.lens = slices.Delete(s.lens, ci, ci+1)
}

// grabChunk returns an empty chunk backing, reusing a recycled one if held.
func (s *lruStack) grabChunk() []uint64 {
	if n := len(s.spare); n > 0 {
		c := s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
		return c
	}
	return make([]uint64, 0, stackChunkCap)
}
