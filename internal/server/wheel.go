package server

import (
	"sync"
	"time"
)

// wheelGranularity is the daemon's timer-wheel tick; ticker periods are
// quantised up to it.
const wheelGranularity = 20 * time.Millisecond

// wheelSlots is the wheel circumference. At wheelGranularity one revolution
// covers ~5s; ticker periods beyond that park in their slot with a rotation
// count and are only touched once per revolution.
const wheelSlots = 256

// timerWheel drives every ticker session from ONE goroutine and ONE
// time.Ticker, replacing the per-session time.Ticker the loop used to own —
// the second half of making 100k resident-but-idle sessions cost ~0 timers.
// It is a coarse timing wheel: a circle of wheelSlots buckets advanced every
// granularity tick, where an entry due more than one revolution out carries
// a rotation count (the collapsed upper wheel of a hierarchical design —
// entries with long periods are touched once per revolution, not per tick).
// Periods are quantised UP to the granularity, so a 5ms ticker under a 20ms
// wheel fires every 20ms; density is the trade.
//
// Fires are delivered through the session mailbox (session.deliverTick), so
// the engine's single-owner invariant holds: the wheel goroutine never
// touches an engine, it just nudges loops. A full mailbox drops the tick
// (counted), exactly like a tick that finds the dispatcher busy.
type timerWheel struct {
	gran time.Duration

	mu    sync.Mutex
	cur   int // slot index last advanced to
	slots [wheelSlots]map[*session]*wheelEntry
	ents  map[*session]*wheelEntry

	stop chan struct{}
	done chan struct{}
}

type wheelEntry struct {
	periodTicks int // fire every this many granularity ticks (>= 1)
	rotations   int // full revolutions left before the entry is due
	slot        int // which bucket the entry currently sits in
}

func newTimerWheel(gran time.Duration) *timerWheel {
	w := &timerWheel{
		gran: gran,
		ents: make(map[*session]*wheelEntry),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go w.run()
	return w
}

func (w *timerWheel) run() {
	defer close(w.done)
	t := time.NewTicker(w.gran)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.advance()
		}
	}
}

// advance moves the cursor one slot and fires everything due there. Delivery
// happens outside the lock — deliverTick is non-blocking, but schedule and
// remove must never wait behind a slot scan.
func (w *timerWheel) advance() {
	w.mu.Lock()
	w.cur = (w.cur + 1) % wheelSlots
	slot := w.slots[w.cur]
	var due []*session
	for s, e := range slot {
		if e.rotations > 0 {
			e.rotations--
			continue
		}
		due = append(due, s)
		delete(slot, s)
		w.placeLocked(s, e, e.periodTicks)
	}
	w.mu.Unlock()
	for _, s := range due {
		s.deliverTick()
	}
}

// placeLocked files an entry `after` granularity ticks from the cursor.
func (w *timerWheel) placeLocked(s *session, e *wheelEntry, after int) {
	if after < 1 {
		after = 1
	}
	e.slot = (w.cur + after) % wheelSlots
	e.rotations = after / wheelSlots
	if w.slots[e.slot] == nil {
		w.slots[e.slot] = make(map[*session]*wheelEntry)
	}
	w.slots[e.slot][s] = e
}

// schedule registers a session to fire every period (quantised up to the
// wheel granularity). Re-scheduling an already-registered session is a no-op.
func (w *timerWheel) schedule(s *session, period time.Duration) {
	ticks := int((period + w.gran - 1) / w.gran)
	if ticks < 1 {
		ticks = 1
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.ents[s]; ok {
		return
	}
	e := &wheelEntry{periodTicks: ticks}
	w.ents[s] = e
	w.placeLocked(s, e, ticks)
}

// remove deregisters a session (idempotent). After remove returns, the wheel
// will not deliver further ticks to it — at most one fire already past the
// lock is in flight, and that lands harmlessly in the mailbox.
func (w *timerWheel) remove(s *session) {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.ents[s]
	if !ok {
		return
	}
	delete(w.ents, s)
	delete(w.slots[e.slot], s)
}

// size reports the registered-session count (for /metrics and tests).
func (w *timerWheel) size() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.ents)
}

func (w *timerWheel) close() {
	close(w.stop)
	<-w.done
}
