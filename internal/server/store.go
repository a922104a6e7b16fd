package server

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// store is the session registry, lock-striped for density: session ids hash
// (FNV-1a) onto a power-of-two number of segments, each with its own mutex,
// LRU list and id map, so 100k-resident lookups from many connections stop
// serialising on one lock. Capacity eviction is per-segment (each segment
// holds an equal slice of MaxSessions), so MaxSessions is approximate under
// striping: a segment can fill from hash imbalance and evict its LRU while
// the store as a whole is under max — provision headroom as with any
// per-slab LRU. The resident count is a global atomic, and the idle-TTL
// sweep walks each segment's LRU tail independently.
//
// The store only tracks sessions — closing an evicted session (which blocks
// on its loop goroutine) happens outside the lock, by the caller.
type store struct {
	segs   []storeSegment
	mask   uint32
	segMax int // per-segment capacity
	ttl    time.Duration
	count  atomic.Int64 // resident sessions across all segments
}

// storeSegment is one stripe: a map for lookup plus an LRU list for
// capacity eviction. Padded-free on purpose — segments are touched by id
// hash, not scanned, so false sharing is not the bottleneck here.
type storeSegment struct {
	mu   sync.Mutex
	ll   *list.List // front = most recently used
	byID map[string]*list.Element
}

// defaultSegments sizes the stripe count for a capacity: one segment per 64
// sessions of capacity, rounded down to a power of two, clamped to [1, 64].
// Small daemons (the default 128-session config, every pre-density test) get
// one or two segments and keep near-global LRU semantics; a 100k-session
// density shard gets 64.
func defaultSegments(max int) int {
	n := 1
	for n*2 <= max/64 && n < 64 {
		n *= 2
	}
	return n
}

// newStore builds a registry for max sessions across the given number of
// segments (rounded up to a power of two; <= 0 selects defaultSegments).
func newStore(max int, ttl time.Duration, segments int) *store {
	if segments <= 0 {
		segments = defaultSegments(max)
	}
	pow := 1
	for pow < segments {
		pow *= 2
	}
	segments = pow
	if segments > max {
		segments = 1
	}
	st := &store{
		segs: make([]storeSegment, segments),
		mask: uint32(segments - 1),
		// Ceiling division: capacities not divisible by the stripe count
		// round each segment up, so the global cap is never undershot.
		segMax: (max + segments - 1) / segments,
		ttl:    ttl,
	}
	for i := range st.segs {
		st.segs[i].ll = list.New()
		st.segs[i].byID = make(map[string]*list.Element)
	}
	return st
}

// seg picks the segment owning an id: FNV-1a over the id bytes, masked onto
// the power-of-two stripe count.
func (st *store) seg(id string) *storeSegment {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return &st.segs[h&st.mask]
}

// segments reports the stripe count (for /metrics and tests).
func (st *store) segments() int { return len(st.segs) }

// add registers a session, returning the session evicted to make room (nil
// when under capacity). Eviction is per-segment: the LRU session of the
// *incoming id's* segment goes, which with one segment is exactly the global
// LRU. Duplicate IDs are an error.
func (st *store) add(s *session) (evicted *session, err error) {
	sg := st.seg(s.id)
	sg.mu.Lock()
	defer sg.mu.Unlock()
	if _, ok := sg.byID[s.id]; ok {
		return nil, fmt.Errorf("session %q already exists", s.id)
	}
	if sg.ll.Len() >= st.segMax {
		back := sg.ll.Back()
		evicted = back.Value.(*session)
		sg.ll.Remove(back)
		delete(sg.byID, evicted.id)
		st.count.Add(-1)
	}
	sg.byID[s.id] = sg.ll.PushFront(s)
	st.count.Add(1)
	return evicted, nil
}

// get looks a session up and marks it most recently used within its segment.
func (st *store) get(id string) *session {
	sg := st.seg(id)
	sg.mu.Lock()
	defer sg.mu.Unlock()
	el, ok := sg.byID[id]
	if !ok {
		return nil
	}
	sg.ll.MoveToFront(el)
	return el.Value.(*session)
}

// remove unregisters a session (nil if absent). The caller closes it.
func (st *store) remove(id string) *session {
	sg := st.seg(id)
	sg.mu.Lock()
	defer sg.mu.Unlock()
	el, ok := sg.byID[id]
	if !ok {
		return nil
	}
	sg.ll.Remove(el)
	delete(sg.byID, id)
	st.count.Add(-1)
	return el.Value.(*session)
}

// list snapshots every live session, most recently used first within each
// segment, segments in index order. With one segment this is the global MRU
// order the pre-striping store listed.
func (st *store) list() []*session {
	out := make([]*session, 0, st.count.Load())
	for i := range st.segs {
		sg := &st.segs[i]
		sg.mu.Lock()
		for el := sg.ll.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*session))
		}
		sg.mu.Unlock()
	}
	return out
}

func (st *store) len() int { return int(st.count.Load()) }

// sweepIdle unregisters and returns every session idle past the TTL. Each
// segment's walk starts at its LRU end and stops at the first fresh session.
// The caller closes the returned sessions outside the locks.
func (st *store) sweepIdle(now time.Time) []*session {
	if st.ttl <= 0 {
		return nil
	}
	var idle []*session
	for i := range st.segs {
		sg := &st.segs[i]
		sg.mu.Lock()
		for el := sg.ll.Back(); el != nil; {
			s := el.Value.(*session)
			if now.Sub(s.LastUsed()) < st.ttl {
				break
			}
			prev := el.Prev()
			sg.ll.Remove(el)
			delete(sg.byID, s.id)
			st.count.Add(-1)
			idle = append(idle, s)
			el = prev
		}
		sg.mu.Unlock()
	}
	return idle
}

// idleCandidates returns sessions untouched for at least d WITHOUT removing
// them — the hibernation sweep's read side. Like sweepIdle, each segment
// walks from its LRU end and stops at the first fresh session; the caller
// re-checks freshness per session before actually parking (a touch may land
// between the sweep and the park).
func (st *store) idleCandidates(now time.Time, d time.Duration) []*session {
	if d <= 0 {
		return nil
	}
	var idle []*session
	for i := range st.segs {
		sg := &st.segs[i]
		sg.mu.Lock()
		for el := sg.ll.Back(); el != nil; el = el.Prev() {
			s := el.Value.(*session)
			if now.Sub(s.LastUsed()) < d {
				break
			}
			idle = append(idle, s)
		}
		sg.mu.Unlock()
	}
	return idle
}

// drain unregisters every session for shutdown. The caller closes them.
func (st *store) drain() []*session {
	var all []*session
	for i := range st.segs {
		sg := &st.segs[i]
		sg.mu.Lock()
		for el := sg.ll.Front(); el != nil; el = el.Next() {
			all = append(all, el.Value.(*session))
			st.count.Add(-1)
		}
		sg.ll.Init()
		sg.byID = make(map[string]*list.Element)
		sg.mu.Unlock()
	}
	return all
}
