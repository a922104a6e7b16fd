package trace

import (
	"fmt"
	"math"
	"testing"

	"rebudget/internal/numeric"
)

// refStack is the obviously-correct reference model: a plain slice in MRU
// order. The chunked lruStack must match it operation for operation — the
// logical LRU order is the whole contract, and this is what guarantees every
// change of representation left the generated streams bit-identical.
type refStack struct{ s []uint64 }

func (r *refStack) Len() int        { return len(r.s) }
func (r *refStack) At(d int) uint64 { return r.s[d] }
func (r *refStack) Touch(d int) uint64 {
	b := r.s[d]
	copy(r.s[1:d+1], r.s[:d])
	r.s[0] = b
	return b
}
func (r *refStack) PushFront(b uint64) { r.s = append([]uint64{b}, r.s...) }
func (r *refStack) DropBack() {
	if len(r.s) > 0 {
		r.s = r.s[:len(r.s)-1]
	}
}

// check verifies the representation invariants of an lruStack.
func (s *lruStack) check() error {
	if len(s.lens) != len(s.chunks) {
		return fmt.Errorf("%d lens for %d chunks", len(s.lens), len(s.chunks))
	}
	sum := 0
	for i, c := range s.chunks {
		switch {
		case int(s.lens[i]) != len(c):
			return fmt.Errorf("lens[%d] = %d, chunk holds %d", i, s.lens[i], len(c))
		case len(c) == 0:
			return fmt.Errorf("chunk %d of %d is empty", i, len(s.chunks))
		case cap(c) != stackChunkCap:
			return fmt.Errorf("chunk %d has cap %d, want %d", i, cap(c), stackChunkCap)
		case len(c) < stackMinFill && i != 0 && i != len(s.chunks)-1:
			return fmt.Errorf("interior chunk %d of %d holds %d < %d", i, len(s.chunks), len(c), stackMinFill)
		}
		sum += len(c)
	}
	if sum != s.total {
		return fmt.Errorf("chunks hold %d blocks, total says %d", sum, s.total)
	}
	if len(s.spare) > stackSpareCap {
		return fmt.Errorf("%d spare backings, cap %d", len(s.spare), stackSpareCap)
	}
	return nil
}

// TestChunkedStackMatchesReference drives the stack and the reference with
// the same operations and checks the representation invariants after every
// one. The uniform regime lands removals, splits and drops everywhere; the
// geometric one is the generator's own — a deep draw now and then out of a
// stack whose front is hammered — which is where a stack that only ever
// split its chunks decayed into two-entry nodes.
func TestChunkedStackMatchesReference(t *testing.T) {
	uniform := func(rng *numeric.Rand, n int) int {
		d := int(rng.Uint64() % uint64(n))
		if rng.Float64() < 0.7 {
			d /= 16 // bias towards shallow depths, but hit deep ones too
		}
		return d
	}
	geometric := func(mean float64) func(*numeric.Rand, int) int {
		logQ := math.Log(mean / (1 + mean))
		return func(rng *numeric.Rand, _ int) int {
			return int(math.Log(1-rng.Float64()) / logQ)
		}
	}
	for _, tc := range []struct {
		name       string
		ops        int
		push, drop float64 // per-op probabilities of a forced push / a drop
		depth      func(rng *numeric.Rand, n int) int
	}{
		{"uniform", 200000, 0.15, 0.05, uniform},
		{"geometric1024", 2000000, 0, 0.0005, geometric(1024)},
		{"geometric6144", 500000, 0.001, 0.002, geometric(6144)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := numeric.NewRand(99)
			s := newLRUStack(numeric.NewRand(1))
			ref := &refStack{}
			next := uint64(0)
			push := func() {
				s.PushFront(next)
				ref.PushFront(next)
				next++
			}
			for op := 0; op < tc.ops; op++ {
				switch {
				case ref.Len() == 0 || rng.Float64() < tc.push:
					push()
				case rng.Float64() < tc.drop:
					s.DropBack()
					ref.DropBack()
				default:
					// A draw past the end is a new block, as in Generator.Next.
					d := tc.depth(rng, ref.Len())
					if d >= ref.Len() {
						push()
						break
					}
					if got, want := s.Touch(d), ref.Touch(d); got != want {
						t.Fatalf("op %d: Touch(%d) = %d, reference %d", op, d, got, want)
					}
				}
				if s.Len() != ref.Len() {
					t.Fatalf("op %d: Len = %d, reference %d", op, s.Len(), ref.Len())
				}
				if err := s.check(); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			}
			// Full-order check at the end: every depth must agree.
			for d := 0; d < ref.Len(); d++ {
				if s.At(d) != ref.At(d) {
					t.Fatalf("final order diverges at depth %d: %d vs %d", d, s.At(d), ref.At(d))
				}
			}
			t.Logf("%d blocks in %d chunks", s.Len(), len(s.chunks))
		})
	}
}

// TestStackStaysCompact pins the fill invariant's consequence on a real
// generator: however long a geometric component runs, its stack stays within
// Len()/stackMinFill + 2 chunks. Before chunks were merged this regime held
// 41 876 blocks in 14 808 chunks — 2.8 entries per 2 kB backing.
func TestStackStaysCompact(t *testing.T) {
	g := MustNew(Config{LineSize: 64, Seed: 5, Mix: []Component{{Kind: Geometric, Weight: 1, Param: 6144}}})
	for i := 0; i < 5000000; i++ {
		g.Next()
	}
	s := g.states[0].stack
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
	bound := s.Len()/stackMinFill + 2
	t.Logf("%d blocks in %d chunks (bound %d)", s.Len(), len(s.chunks), bound)
	if len(s.chunks) > bound {
		t.Fatalf("%d blocks live in %d chunks, want at most %d", s.Len(), len(s.chunks), bound)
	}
}

func TestFillMatchesNext(t *testing.T) {
	cfg := Config{LineSize: 64, Seed: 7, Namespace: 3, Mix: []Component{
		{Kind: Geometric, Weight: 0.5, Param: 512},
		{Kind: Cyclic, Weight: 0.3, Param: 9000},
		{Kind: Streaming, Weight: 0.2},
	}}
	a, b := MustNew(cfg), MustNew(cfg)
	buf := make([]uint64, 0, 4096)
	// Uneven batch sizes so chunk boundaries land everywhere.
	for _, n := range []int{1, 7, 64, 1000, 4096, 3, 333} {
		buf = buf[:n]
		a.Fill(buf)
		for i := 0; i < n; i++ {
			if want := b.Next(); buf[i] != want {
				t.Fatalf("Fill diverges from Next at draw %d of batch %d: %d vs %d", i, n, buf[i], want)
			}
		}
	}
}

func TestPhasedFillMatchesNext(t *testing.T) {
	phases := []Phase{
		{Mix: []Component{{Kind: Geometric, Weight: 1, Param: 256}}, Accesses: 100},
		{Mix: []Component{{Kind: Streaming, Weight: 1}}, Accesses: 37},
	}
	a, err := NewPhased(64, phases, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPhased(64, phases, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Batches straddle phase boundaries (phase cycle is 137 accesses).
	buf := make([]uint64, 0, 500)
	for _, n := range []int{50, 120, 1, 500, 137} {
		buf = buf[:n]
		a.Fill(buf)
		for i := 0; i < n; i++ {
			if want := b.Next(); buf[i] != want {
				t.Fatalf("phased Fill diverges at draw %d of batch %d: %d vs %d", i, n, buf[i], want)
			}
		}
	}
	if a.CurrentPhase() != b.CurrentPhase() {
		t.Fatalf("phase diverged: %d vs %d", a.CurrentPhase(), b.CurrentPhase())
	}
}

// At returns the block at stack depth d (0 = MRU) without reordering.
func (s *lruStack) At(d int) uint64 {
	ci, j := s.locate(d)
	return s.chunks[ci][j]
}
