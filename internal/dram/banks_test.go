package dram

import (
	"math"
	"testing"
)

func TestNewBankSimValidation(t *testing.T) {
	if _, err := NewBankSim(0); err == nil {
		t.Error("zero channels accepted")
	}
	s, err := NewBankSim(2)
	if err != nil {
		t.Fatal(err)
	}
	if s.RowHitRate() != 0 {
		t.Error("idle hit rate should be 0")
	}
	if bankImbalance(s) != 1 {
		t.Error("idle imbalance should be 1")
	}
}

func TestSequentialStreamRowLocality(t *testing.T) {
	// A sequential line stream revisits each open row many times (lines
	// interleave across channels, rows fill within a channel).
	s, _ := NewBankSim(2)
	for i := 0; i < 100000; i++ {
		s.Access(uint64(i) * LineBytes)
	}
	if hr := s.RowHitRate(); hr < 0.95 {
		t.Errorf("sequential stream row hit rate %g, want near 1", hr)
	}
}

func TestRandomStreamRowMisses(t *testing.T) {
	// Widely scattered rows rarely hit open rows.
	s, _ := NewBankSim(2)
	addr := uint64(1)
	for i := 0; i < 100000; i++ {
		addr = addr*6364136223846793005 + 1442695040888963407
		s.Access(addr % (1 << 40))
	}
	if hr := s.RowHitRate(); hr > 0.1 {
		t.Errorf("random stream row hit rate %g, want near 0", hr)
	}
}

func TestEpochLatencyReflectsLocality(t *testing.T) {
	seq, _ := NewBankSim(2)
	for i := 0; i < 50000; i++ {
		seq.Access(uint64(i) * LineBytes)
	}
	rnd, _ := NewBankSim(2)
	addr := uint64(7)
	for i := 0; i < 50000; i++ {
		addr = addr*6364136223846793005 + 1442695040888963407
		rnd.Access(addr % (1 << 40))
	}
	const epoch, scale = 1e-3, 1.0
	if seq.EpochLatencyNs(epoch, scale) >= rnd.EpochLatencyNs(epoch, scale) {
		t.Errorf("sequential latency %g should beat random %g",
			seq.EpochLatencyNs(epoch, scale), rnd.EpochLatencyNs(epoch, scale))
	}
}

func TestEpochLatencyGrowsWithLoad(t *testing.T) {
	mk := func(accesses int) float64 {
		s, _ := NewBankSim(2)
		for i := 0; i < accesses; i++ {
			s.Access(uint64(i) * LineBytes)
		}
		return s.EpochLatencyNs(1e-3, 1)
	}
	light, heavy := mk(1000), mk(80000)
	if heavy <= light {
		t.Errorf("latency should grow with load: light %g vs heavy %g", light, heavy)
	}
	// Queueing saturates rather than diverging.
	extreme := mk(500000)
	if math.IsInf(extreme, 0) || math.IsNaN(extreme) || extreme > 1000 {
		t.Errorf("latency %g diverged under extreme load", extreme)
	}
}

func TestSampleScaleRaisesLoad(t *testing.T) {
	mk := func(scale float64) float64 {
		s, _ := NewBankSim(2)
		for i := 0; i < 5000; i++ {
			s.Access(uint64(i) * LineBytes)
		}
		return s.EpochLatencyNs(1e-3, scale)
	}
	if mk(10) <= mk(1) {
		t.Error("higher sample scale means higher real load and latency")
	}
}

// bankImbalance is the ratio of the hottest bank's load to the mean (1 =
// perfectly balanced).
func bankImbalance(s *BankSim) float64 {
	if s.accesses == 0 {
		return 1
	}
	var max uint64
	for _, n := range s.perBank {
		if n > max {
			max = n
		}
	}
	return float64(max) / (float64(s.accesses) / float64(len(s.perBank)))
}

func TestHotBankImbalance(t *testing.T) {
	s, _ := NewBankSim(2)
	// Hammer one single row repeatedly: one bank takes everything.
	for i := 0; i < 10000; i++ {
		s.Access(0)
	}
	if imb := bankImbalance(s); imb < float64(len(s.perBank))-1e-9 {
		t.Errorf("single-bank hammer imbalance %g, want %d", imb, len(s.perBank))
	}
	// And it should pay more queueing than a spread stream of equal size.
	spread, _ := NewBankSim(2)
	for i := 0; i < 10000; i++ {
		spread.Access(uint64(i) * LineBytes * uint64(DefaultRowLines))
	}
	// The hammered stream is all row hits, so compare pure queueing by
	// load: same access count, hot bank has N× the per-bank rate.
	if bankImbalance(s) <= bankImbalance(spread) {
		t.Errorf("hammer imbalance %g should exceed spread %g",
			bankImbalance(s), bankImbalance(spread))
	}
}

func TestBankSimReset(t *testing.T) {
	s, _ := NewBankSim(1)
	for i := 0; i < 100; i++ {
		s.Access(uint64(i) * LineBytes)
	}
	s.Reset()
	if s.RowHitRate() != 0 || bankImbalance(s) != 1 {
		t.Error("Reset did not clear epoch counters")
	}
	// Open rows persist: the next access to the same row still hits.
	s.Access(0)
	s.Access(LineBytes)
	if s.RowHitRate() < 0.5 {
		t.Error("open-row state should survive Reset")
	}
}
