package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Engine is the sweep runner every experiment fans out through. Each
// experiment decomposes into independent cells (one chip run, one analytic
// bundle, one fault-rate point); the engine executes them across a worker
// pool and the experiment assembles results into index-addressed slots.
//
// Determinism is structural, not accidental: cells write only their own
// slot, every cell's inputs are derived from the seed before the fan-out
// starts, and error selection is by lowest cell index rather than by
// completion order. A run with Workers=1 is therefore byte-identical to a
// run with Workers=N — the bit-identity tests pin this under -race.
type Engine struct {
	// Workers caps how many cells run concurrently: 0 means GOMAXPROCS,
	// 1 runs the cells inline (serial).
	Workers int
}

func (e Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(0..n-1), at most workers() cells at a time, and returns
// the error of the lowest-indexed failing cell (deterministic regardless of
// scheduling). The serial path runs inline — no goroutines, so a profiler
// or debugger sees a plain call stack — and short-circuits on first error
// exactly as the pre-engine serial loops did.
func (e Engine) forEach(n int, fn func(i int) error) error {
	w := e.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
