package server

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// bareSession builds a session shell (no engine, no loop) for store tests.
func bareSession(id string, lastUsed time.Time) *session {
	return &session{id: id, lastUsed: lastUsed}
}

func TestStoreLRUEviction(t *testing.T) {
	st := newStore(3, 0, 1)
	now := time.Now()
	for i := 0; i < 3; i++ {
		if _, err := st.add(bareSession(fmt.Sprintf("s%d", i), now)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch s0 so s1 becomes LRU.
	if st.get("s0") == nil {
		t.Fatal("s0 missing")
	}
	ev, err := st.add(bareSession("s3", now))
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil || ev.id != "s1" {
		t.Fatalf("expected s1 evicted, got %v", ev)
	}
	if st.get("s1") != nil {
		t.Fatal("s1 still resident after eviction")
	}
	if st.len() != 3 {
		t.Fatalf("len = %d, want 3", st.len())
	}
}

func TestStoreDuplicateID(t *testing.T) {
	st := newStore(4, 0, 1)
	if _, err := st.add(bareSession("dup", time.Now())); err != nil {
		t.Fatal(err)
	}
	if _, err := st.add(bareSession("dup", time.Now())); err == nil {
		t.Fatal("duplicate id accepted")
	}
}

func TestStoreSweepIdle(t *testing.T) {
	st := newStore(8, time.Minute, 1)
	now := time.Now()
	stale := bareSession("stale", now.Add(-2*time.Minute))
	fresh := bareSession("fresh", now)
	if _, err := st.add(stale); err != nil {
		t.Fatal(err)
	}
	if _, err := st.add(fresh); err != nil {
		t.Fatal(err)
	}
	idle := st.sweepIdle(now)
	if len(idle) != 1 || idle[0].id != "stale" {
		t.Fatalf("sweepIdle = %v, want [stale]", idle)
	}
	if st.get("stale") != nil {
		t.Fatal("stale session still resident")
	}
	if st.get("fresh") == nil {
		t.Fatal("fresh session swept")
	}
}

func TestStoreRemoveAndDrain(t *testing.T) {
	st := newStore(8, 0, 1)
	if _, err := st.add(bareSession("a", time.Now())); err != nil {
		t.Fatal(err)
	}
	if _, err := st.add(bareSession("b", time.Now())); err != nil {
		t.Fatal(err)
	}
	if st.remove("a") == nil {
		t.Fatal("remove(a) = nil")
	}
	if st.remove("a") != nil {
		t.Fatal("double remove returned a session")
	}
	all := st.drain()
	if len(all) != 1 || all[0].id != "b" {
		t.Fatalf("drain = %v, want [b]", all)
	}
	if st.len() != 0 {
		t.Fatal("store non-empty after drain")
	}
}

// TestStoreDefaultSegments pins the auto-sizing curve: small daemons stay
// effectively global-LRU, density configs stripe wide.
func TestStoreDefaultSegments(t *testing.T) {
	cases := []struct{ max, want int }{
		{2, 1}, {64, 1}, {128, 2}, {1024, 16}, {100000, 64}, {1 << 20, 64},
	}
	for _, tc := range cases {
		if got := defaultSegments(tc.max); got != tc.want {
			t.Errorf("defaultSegments(%d) = %d, want %d", tc.max, got, tc.want)
		}
		st := newStore(tc.max, 0, 0)
		if st.segments() != tc.want {
			t.Errorf("newStore(%d).segments() = %d, want %d", tc.max, st.segments(), tc.want)
		}
	}
	// Requested counts round up to a power of two; absurd counts collapse.
	if st := newStore(1024, 0, 3); st.segments() != 4 {
		t.Errorf("segments=3 should round to 4, got %d", st.segments())
	}
	if st := newStore(2, 0, 64); st.segments() != 1 {
		t.Errorf("more segments than capacity should collapse to 1, got %d", st.segments())
	}
}

// sameSegmentIDs finds n distinct ids hashing to the segment of seed.
func sameSegmentIDs(st *store, seed string, n int) []string {
	ids := []string{seed}
	target := st.seg(seed)
	for i := 0; len(ids) < n; i++ {
		id := fmt.Sprintf("%s-%d", seed, i)
		if st.seg(id) == target {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestStoreSegmentBoundaryEviction: with striping, capacity eviction is
// per-segment — filling one segment past its share evicts that segment's LRU
// even while the store as a whole is under max, and the eviction order
// within the segment is exact LRU.
func TestStoreSegmentBoundaryEviction(t *testing.T) {
	st := newStore(8, 0, 4) // 4 segments × 2 sessions each
	now := time.Now()
	ids := sameSegmentIDs(st, "seg", 3)
	for _, id := range ids[:2] {
		if _, err := st.add(bareSession(id, now)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch the first so the second becomes the segment's LRU.
	if st.get(ids[0]) == nil {
		t.Fatalf("%s missing", ids[0])
	}
	ev, err := st.add(bareSession(ids[2], now))
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil || ev.id != ids[1] {
		t.Fatalf("expected %s evicted at the segment boundary, got %v", ids[1], ev)
	}
	if st.len() != 2 {
		t.Fatalf("len = %d, want 2", st.len())
	}
	// A session in a different segment is untouched by the other's pressure.
	other := "x"
	for st.seg(other) == st.seg(ids[0]) {
		other += "x"
	}
	if _, err := st.add(bareSession(other, now)); err != nil {
		t.Fatal(err)
	}
	if st.get(other) == nil || st.get(ids[0]) == nil {
		t.Fatal("cross-segment add disturbed an unrelated segment")
	}
}

// TestStoreStripedConsistency hammers a striped store with concurrent
// add/get/remove/list/sweep churn; meaningful under -race, and the final
// resident count must reconcile with what the segments actually hold.
func TestStoreStripedConsistency(t *testing.T) {
	st := newStore(256, time.Hour, 8)
	now := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("churn-%d-%d", g, i%32)
				switch i % 4 {
				case 0:
					_, _ = st.add(bareSession(id, now))
				case 1:
					st.get(id)
				case 2:
					st.remove(id)
				case 3:
					st.list()
					st.sweepIdle(now)
					st.idleCandidates(now, time.Minute)
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := st.len(), len(st.list()); got != want {
		t.Fatalf("resident count %d disagrees with list length %d", got, want)
	}
	for _, s := range st.drain() {
		_ = s
	}
	if st.len() != 0 {
		t.Fatalf("len = %d after drain", st.len())
	}
}
