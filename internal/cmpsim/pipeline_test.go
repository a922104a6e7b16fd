package cmpsim

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"rebudget/internal/app"
	"rebudget/internal/core"
	"rebudget/internal/numeric"
	"rebudget/internal/workload"
)

// TestChunkBoundsTileTheWalk is the property the generation/walk pipeline
// rests on: for any pacing — fewer steps than chunks, idle cores, cores at
// the full step count, unequal counts — each core's per-chunk buffer ranges
// tile [0, count) with no gap or overlap, and the walker consumes exactly
// each chunk's range while running that chunk's steps. The benchmark's
// chips pace every core at the cap, so only this test sees unequal counts.
func TestChunkBoundsTileTheWalk(t *testing.T) {
	chip, err := NewChip(DefaultConfig(8), steadyBundle(8))
	if err != nil {
		t.Fatal(err)
	}
	s := &chip.scratch
	limit := chip.cfg.MaxAccessesPerCoreEpoch
	s.ensure(chip.cfg.Cores, limit)
	rng := numeric.NewRand(11)
	next := make([]int, chip.cfg.Cores)
	for trial := 0; trial < 300; trial++ {
		var maxCount int
		switch trial % 3 {
		case 0:
			maxCount = 1 + rng.Intn(2*epochChunks)
		case 1:
			maxCount = 1 + rng.Intn(100)
		default:
			maxCount = 1 + rng.Intn(limit)
		}
		for i := range s.counts {
			switch rng.Intn(4) {
			case 0:
				s.counts[i] = 0
			case 1:
				s.counts[i] = maxCount
			default:
				s.counts[i] = rng.Intn(maxCount + 1)
			}
			s.credits[i], s.cursor[i], next[i] = 0, 0, 0
		}
		s.counts[rng.Intn(len(s.counts))] = maxCount // the largest count sets the steps

		for k := 0; k < epochChunks; k++ {
			chip.walk(chunkStep(k, maxCount), chunkStep(k+1, maxCount), maxCount)
			for i, count := range s.counts {
				lo, hi := coreChunk(k, count, maxCount)
				if lo != next[i] || hi < lo {
					t.Fatalf("maxCount %d, counts %v: core %d chunk %d is [%d, %d), want it to start at %d",
						maxCount, s.counts, i, k, lo, hi, next[i])
				}
				if s.cursor[i] != hi {
					t.Fatalf("maxCount %d, counts %v: core %d chunk %d is [%d, %d), but the walker emitted through %d",
						maxCount, s.counts, i, k, lo, hi, s.cursor[i])
				}
				next[i] = hi
			}
		}
		for i, count := range s.counts {
			if next[i] != count {
				t.Fatalf("maxCount %d, counts %v: core %d's chunks end at %d, want %d",
					maxCount, s.counts, i, next[i], count)
			}
		}
	}
}

// holdHelpers parks every producer helper on a chip of its own whose
// tokens nobody takes, so until release is called no helper is idle and
// every epoch generates its chunks inline.
func holdHelpers() (release func()) {
	producersOnce.Do(startProducers)
	held := make([]*Chip, producerHelpers)
	for i := range held {
		held[i] = &Chip{}
		held[i].scratch.ready = make(chan struct{})
		producers <- held[i] // taken only by an idle helper
	}
	return func() {
		for _, c := range held {
			for range epochChunks {
				<-c.scratch.ready
			}
		}
	}
}

// TestConcurrentChipsMatchSerial steps more chips than there are producer
// helpers, three ways: one at a time with the helpers free (epochs hand off
// whenever a helper is parked), from separate goroutines (hand-offs and
// inline generation mixed, as timing falls), and one at a time with every
// helper held busy (every epoch generates inline, for certain). All three
// must reach bit-identical states. One chip takes a context switch mid-run.
func TestConcurrentChipsMatchSerial(t *testing.T) {
	// chipState is what a stepped chip exposes: its allocation and result.
	type chipState struct {
		regions, freqs []float64
		result         *Result
	}
	chips := producerHelpers + 2
	sixtrack, err := app.Lookup("sixtrack")
	if err != nil {
		t.Fatal(err)
	}
	step := func(k int) chipState {
		// The Figure 3 bundle's stand-alone references are shared with the
		// package's other chip tests; the seed makes each chip's traces
		// its own.
		bundle, err := workload.Figure3Bundle()
		if err != nil {
			t.Error(err)
			return chipState{}
		}
		cfg := DefaultConfig(8)
		cfg.WarmupEpochs, cfg.Epochs, cfg.Seed = 2, 6, uint64(k)
		cfg.MaxAccessesPerCoreEpoch = 1500
		c, err := NewChip(cfg, bundle)
		if err == nil {
			err = c.Begin(core.ReBudget{Step: 20})
		}
		for e := 0; err == nil && e < cfg.Epochs; e++ {
			if k == 0 && e == 3 {
				err = c.SwitchApp(2, sixtrack)
			}
			if err == nil {
				err = c.StepEpoch()
			}
		}
		var res *Result
		if err == nil {
			res, err = c.Snapshot()
		}
		if err != nil {
			t.Error(err)
			return chipState{}
		}
		res.Equilibrium.Wall = 0 // the one nondeterministic field
		return chipState{c.Regions(), c.Frequencies(), res}
	}

	serial := make([]chipState, chips)
	for k := range serial {
		serial[k] = step(k)
	}
	concurrent := make([]chipState, chips)
	var wg sync.WaitGroup
	for k := range concurrent {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			concurrent[k] = step(k)
		}(k)
	}
	wg.Wait()
	inline := make([]chipState, chips)
	release := holdHelpers()
	for k := range inline {
		inline[k] = step(k)
	}
	release()
	if t.Failed() {
		return
	}

	sameBits := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for k := range serial {
		s := serial[k]
		for _, run := range []struct {
			name string
			got  chipState
		}{{"concurrent", concurrent[k]}, {"inline", inline[k]}} {
			c := run.got
			if !sameBits(s.regions, c.regions) || !sameBits(s.freqs, c.freqs) {
				t.Errorf("chip %d: %s allocation diverged\nserial %v %v\n%s %v %v",
					k, run.name, s.regions, s.freqs, run.name, c.regions, c.freqs)
			}
			if !reflect.DeepEqual(s.result, c.result) {
				t.Errorf("chip %d: %s snapshot diverged\nserial %+v\n%s %+v", k, run.name, s.result, run.name, c.result)
			}
		}
	}
}
