package dram

import (
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Channels: 0, RowHitRate: 0.5}); err == nil {
		t.Error("zero channels accepted")
	}
	if _, err := New(Config{Channels: 2, RowHitRate: -0.1}); err == nil {
		t.Error("negative row hit rate accepted")
	}
	if _, err := New(Config{Channels: 2, RowHitRate: 1.1}); err == nil {
		t.Error("row hit rate > 1 accepted")
	}
	if _, err := New(Config{Channels: 2, RowHitRate: 0.5}); err != nil {
		t.Error("valid config rejected")
	}
}

func TestBaseLatencyBetweenHitAndMiss(t *testing.T) {
	s, _ := New(Config{Channels: 2, RowHitRate: 0.5})
	base := s.BaseLatencyNs()
	if base <= RowHitNs || base >= RowMissNs {
		t.Errorf("base latency %g outside (%g, %g)", base, RowHitNs, RowMissNs)
	}
	allHit, _ := New(Config{Channels: 2, RowHitRate: 1})
	if allHit.BaseLatencyNs() != RowHitNs {
		t.Error("all-hit base latency wrong")
	}
}
