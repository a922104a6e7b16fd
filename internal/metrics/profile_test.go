package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEquilibriumProfile(t *testing.T) {
	var p EquilibriumProfile
	if s := p.Snapshot(); s.Runs != 0 || s.Rounds != 0 || s.BidSteps != 0 || s.Wall != 0 {
		t.Fatalf("zero profile snapshot not empty: %+v", s)
	}
	p.Observe(4, 32, 2*time.Millisecond)
	p.Observe(6, 48, 3*time.Millisecond)
	s := p.Snapshot()
	if s.Runs != 2 || s.Rounds != 10 || s.BidSteps != 80 || s.Wall != 5*time.Millisecond {
		t.Fatalf("bad snapshot: %+v", s)
	}
	if got := s.RoundsPerRun(); got != 5 {
		t.Errorf("RoundsPerRun = %v, want 5", got)
	}
	if got := s.WallPerRun(); got != 2500*time.Microsecond {
		t.Errorf("WallPerRun = %v, want 2.5ms", got)
	}
	str := s.String()
	for _, want := range []string{"runs 2", "rounds 10", "5.00/run", "bid steps 80"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q, missing %q", str, want)
		}
	}
}

// TestEquilibriumProfileConcurrent exercises the atomic counters under the
// race detector: Observe is the market Observer callback, and concurrent
// sweeps share one profile.
func TestEquilibriumProfileConcurrent(t *testing.T) {
	var p EquilibriumProfile
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p.Observe(1, 8, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := p.Snapshot()
	if s.Runs != 800 || s.Rounds != 800 || s.BidSteps != 6400 || s.Wall != 800*time.Microsecond {
		t.Fatalf("bad concurrent snapshot: %+v", s)
	}
}

func TestEquilibriumStatsEmptyString(t *testing.T) {
	var s EquilibriumStats
	if str := s.String(); !strings.Contains(str, "runs 0") {
		t.Errorf("empty stats String() = %q", str)
	}
}
