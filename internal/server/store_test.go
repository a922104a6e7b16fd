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
	st := newStore(3, 0)
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
	var order []string
	for _, s := range st.list() {
		order = append(order, s.id)
	}
	if got := fmt.Sprint(order); got != "[s3 s0 s2]" {
		t.Fatalf("list order %s, want most recently used first [s3 s0 s2]", got)
	}
}

func TestStoreDuplicateID(t *testing.T) {
	st := newStore(4, 0)
	if _, err := st.add(bareSession("dup", time.Now())); err != nil {
		t.Fatal(err)
	}
	if _, err := st.add(bareSession("dup", time.Now())); err == nil {
		t.Fatal("duplicate id accepted")
	}
}

func TestStoreSweepIdle(t *testing.T) {
	st := newStore(8, time.Minute)
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
	st := newStore(8, 0)
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

// TestStoreConcurrentConsistency hammers the store with concurrent
// add/get/remove/list/sweep churn over more ids than it holds; meaningful
// under -race, and the final resident count must reconcile with what the
// list holds and never exceed the capacity.
func TestStoreConcurrentConsistency(t *testing.T) {
	const capacity = 64
	st := newStore(capacity, time.Hour)
	now := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("churn-%d-%d", g, i%37) // 37 ids per goroutine, each hit by every op
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
	if got, want := st.len(), len(st.list()); got != want || got > capacity {
		t.Fatalf("resident count %d, list length %d, capacity %d", got, want, capacity)
	}
	st.drain()
	if st.len() != 0 {
		t.Fatalf("len = %d after drain", st.len())
	}
}
