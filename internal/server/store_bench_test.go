package server

import (
	"fmt"
	"testing"
	"time"
)

// Contention benchmarks for the session store: the lookup every request
// takes, and the add/remove pair every create and eviction takes, from
// GOMAXPROCS goroutines at once.

func benchStore(b *testing.B, resident int) (*store, []string) {
	b.Helper()
	st := newStore(resident*2, time.Hour)
	now := time.Now()
	ids := make([]string, resident)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%06d", i)
		if _, err := st.add(bareSession(ids[i], now)); err != nil {
			b.Fatal(err)
		}
	}
	return st, ids
}

func BenchmarkStoreParallelGet(b *testing.B) {
	st, ids := benchStore(b, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if st.get(ids[i&(len(ids)-1)]) == nil {
				b.Fatal("session vanished")
			}
			i++
		}
	})
}

func BenchmarkStoreParallelAdd(b *testing.B) {
	st := newStore(1<<20, time.Hour)
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			id := fmt.Sprintf("churn-%p-%d", &i, i&1023)
			if _, err := st.add(bareSession(id, now)); err != nil {
				b.Fatal(err)
			}
			st.remove(id)
			i++
		}
	})
}
