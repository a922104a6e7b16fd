// Package cluster is the elastic-membership layer of the serving tier:
// the consistent-hash ring (moved here from internal/router once membership
// stopped being a boot-time constant), the moved-key computation that turns
// a ring change into a minimal migration plan, gossip digests that let N
// router replicas converge on one view of shard health, and non-filesystem
// snapshot.Store backends (an HTTP blob service and an in-process N-way
// replicated store) so a shard's sessions restore warm on any node without
// shared disk. The ring math is deliberately deterministic and replica-
// independent: two routers holding the same member list compute identical
// placements and identical moved sets, which is what makes a membership
// epoch a sufficient coordination token. See DESIGN.md, "Elastic
// membership".
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// Ring is a consistent-hash ring with virtual nodes. Every member is
// hashed onto the ring VNodes times; a key maps to the first point at or
// clockwise after its hash. Membership changes move only the keys adjacent
// to the changed member — the property that makes scale-out a small
// migration instead of a full reshuffle.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	points  []ringPoint // sorted by hash
	members map[string]bool
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds an empty ring; vnodes <= 0 selects 64 virtual nodes per
// member (ample balance for single-digit shard counts).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes, members: make(map[string]bool)}
}

// ringHash is FNV-1a with a splitmix64-style finalizer. FNV alone scatters
// similar short strings ("s1#0", "s2#0", vnode names generally) badly enough
// to starve whole members; the avalanche rounds fix the distribution while
// staying dependency-free.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	z := h.Sum64()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Add inserts a member (idempotent).
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{
			hash:   ringHash(member + "#" + strconv.Itoa(i)),
			member: member,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member (idempotent).
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Has reports membership without building the full sorted list.
func (r *Ring) Has(member string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.members[member]
}

// Len reports the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Members returns the current membership, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Primary returns the member owning key ("" on an empty ring).
func (r *Ring) Primary(key string) string {
	seq := r.Sequence(key)
	if len(seq) == 0 {
		return ""
	}
	return seq[0]
}

// Sequence returns every distinct member in the order the ring visits them
// clockwise from key's hash: the primary first, then each successive
// failover target. This is the router's whole placement policy — try
// Sequence(key) in order, first healthy member wins.
func (r *Ring) Sequence(key string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, len(r.members))
	out := make([]string, 0, len(r.members))
	for i := 0; i < len(r.points) && len(out) < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}
