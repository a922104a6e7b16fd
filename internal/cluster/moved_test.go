package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func keyset(k int) []string {
	keys := make([]string, k)
	for i := range keys {
		keys[i] = fmt.Sprintf("session-%d", i)
	}
	return keys
}

func shardNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:9001", i+1)
	}
	return out
}

// Adding one shard to N-1 must move at most ⌈K/N⌉ + ε of K keys — the
// consistent-hashing bound that makes scale-out a small migration. ε
// absorbs vnode placement variance: half a fair share on top of the fair
// share itself.
func TestMovedKeysBoundOnAdd(t *testing.T) {
	const k = 2000
	keys := keyset(k)
	for n := 2; n <= 6; n++ {
		oldMembers := shardNames(n - 1)
		newMembers := shardNames(n)
		moved := MovedKeys(oldMembers, newMembers, 64, keys)
		fair := (k + n - 1) / n
		bound := fair + fair/2
		if len(moved) == 0 {
			t.Fatalf("n=%d: shard add moved nothing — the new shard owns no keys", n)
		}
		if len(moved) > bound {
			t.Fatalf("n=%d: shard add moved %d of %d keys, bound %d", n, len(moved), k, bound)
		}
		// Every moved key must land on the added shard, and only moved keys
		// may change owner — the moved set IS the migration plan.
		added := newMembers[n-1]
		oldRing, newRing := NewRing(64), NewRing(64)
		for _, m := range oldMembers {
			oldRing.Add(m)
		}
		for _, m := range newMembers {
			newRing.Add(m)
		}
		movedSet := make(map[string]bool, len(moved))
		for _, key := range moved {
			movedSet[key] = true
			if got := newRing.Primary(key); got != added {
				t.Fatalf("n=%d: moved key %q lands on %q, not the added shard %q", n, key, got, added)
			}
		}
		for _, key := range keys {
			if !movedSet[key] && oldRing.Primary(key) != newRing.Primary(key) {
				t.Fatalf("n=%d: key %q changed owner but is not in the moved set", n, key)
			}
		}
	}
}

// Removing a shard moves exactly the keys it owned, nothing else.
func TestMovedKeysOnRemove(t *testing.T) {
	keys := keyset(1000)
	members := shardNames(4)
	oldRing := NewRing(64)
	for _, m := range members {
		oldRing.Add(m)
	}
	removed := members[2]
	kept := append(append([]string{}, members[:2]...), members[3])
	moved := MovedKeys(members, kept, 64, keys)
	owned := 0
	for _, key := range keys {
		if oldRing.Primary(key) == removed {
			owned++
		}
	}
	if len(moved) != owned {
		t.Fatalf("remove moved %d keys but the shard owned %d", len(moved), owned)
	}
	for _, key := range moved {
		if oldRing.Primary(key) != removed {
			t.Fatalf("key %q moved on remove but was owned by %q", key, oldRing.Primary(key))
		}
	}
}

// The moved set must be a pure function of (members, vnodes, keys): member
// order, key order, and duplicate keys must not change the answer — that is
// what lets N router replicas compute identical migration plans from the
// same membership epoch with no coordination beyond the epoch itself.
func TestMovedKeysDeterministicAcrossReplicas(t *testing.T) {
	keys := keyset(500)
	oldMembers := shardNames(3)
	newMembers := shardNames(4)
	want := MovedKeys(oldMembers, newMembers, 64, keys)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		shuffledOld := append([]string{}, oldMembers...)
		shuffledNew := append([]string{}, newMembers...)
		shuffledKeys := append([]string{}, keys...)
		shuffledKeys = append(shuffledKeys, keys[:50]...) // duplicates
		rng.Shuffle(len(shuffledOld), func(i, j int) { shuffledOld[i], shuffledOld[j] = shuffledOld[j], shuffledOld[i] })
		rng.Shuffle(len(shuffledNew), func(i, j int) { shuffledNew[i], shuffledNew[j] = shuffledNew[j], shuffledNew[i] })
		rng.Shuffle(len(shuffledKeys), func(i, j int) { shuffledKeys[i], shuffledKeys[j] = shuffledKeys[j], shuffledKeys[i] })
		got := MovedKeys(shuffledOld, shuffledNew, 64, shuffledKeys)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: moved set depends on input order:\n got %d keys\nwant %d keys", trial, len(got), len(want))
		}
	}
}
