package server

import (
	"container/list"
	"fmt"
	"sync"
	"time"
)

// store is the session registry: one mutex over an id map and one LRU list
// with exact capacity — admitting a session past max evicts the least
// recently used one, so the store never holds more than max and never evicts
// below it. The idle-TTL sweep and the hibernation sweep both walk the LRU
// from its cold end.
//
// The store only tracks sessions — closing an evicted session (which blocks
// on its loop goroutine) happens outside the lock, by the caller.
type store struct {
	mu   sync.Mutex
	ll   *list.List // front = most recently used
	byID map[string]*list.Element
	max  int
	ttl  time.Duration
}

// newStore builds a registry holding at most max sessions.
func newStore(max int, ttl time.Duration) *store {
	return &store{ll: list.New(), byID: make(map[string]*list.Element), max: max, ttl: ttl}
}

// add registers a session, returning the LRU session evicted to make room
// (nil when under capacity). Duplicate IDs are an error.
func (st *store) add(s *session) (evicted *session, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.byID[s.id]; ok {
		return nil, fmt.Errorf("session %q already exists", s.id)
	}
	if st.ll.Len() >= st.max {
		evicted = st.unlinkLocked(st.ll.Back())
	}
	st.byID[s.id] = st.ll.PushFront(s)
	return evicted, nil
}

// unlinkLocked drops an element from both the list and the map.
func (st *store) unlinkLocked(el *list.Element) *session {
	s := st.ll.Remove(el).(*session)
	delete(st.byID, s.id)
	return s
}

// get looks a session up and marks it most recently used.
func (st *store) get(id string) *session {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.byID[id]
	if !ok {
		return nil
	}
	st.ll.MoveToFront(el)
	return el.Value.(*session)
}

// remove unregisters a session (nil if absent). The caller closes it.
func (st *store) remove(id string) *session {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.byID[id]
	if !ok {
		return nil
	}
	return st.unlinkLocked(el)
}

// list snapshots every live session, most recently used first.
func (st *store) list() []*session {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.listLocked()
}

func (st *store) listLocked() []*session {
	out := make([]*session, 0, st.ll.Len())
	for el := st.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*session))
	}
	return out
}

func (st *store) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ll.Len()
}

// sweepIdle unregisters and returns every session idle past the TTL,
// walking from the LRU end and stopping at the first fresh session. The
// caller closes the returned sessions outside the lock.
func (st *store) sweepIdle(now time.Time) []*session {
	if st.ttl <= 0 {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var idle []*session
	for el := st.ll.Back(); el != nil && now.Sub(el.Value.(*session).LastUsed()) >= st.ttl; el = st.ll.Back() {
		idle = append(idle, st.unlinkLocked(el))
	}
	return idle
}

// idleCandidates returns sessions untouched for at least d WITHOUT removing
// them — the hibernation sweep's read side. Like sweepIdle it walks from the
// LRU end and stops at the first fresh session; the caller re-checks
// freshness per session before actually parking (a touch may land between
// the sweep and the park).
func (st *store) idleCandidates(now time.Time, d time.Duration) []*session {
	if d <= 0 {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var idle []*session
	for el := st.ll.Back(); el != nil && now.Sub(el.Value.(*session).LastUsed()) >= d; el = el.Prev() {
		idle = append(idle, el.Value.(*session))
	}
	return idle
}

// drain unregisters every session for shutdown. The caller closes them.
func (st *store) drain() []*session {
	st.mu.Lock()
	defer st.mu.Unlock()
	all := st.listLocked()
	st.ll.Init()
	clear(st.byID)
	return all
}
