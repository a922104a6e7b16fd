package server

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"
)

// errBusy is dispatcher backpressure: the wait queue is full — by request
// count or by queued cost depth. Surfaced as HTTP 429 + Retry-After.
var errBusy = errors.New("allocation workers saturated")

// dispatcher bounds the allocation work in flight across every session as a
// weighted semaphore over *cost units*: a request claims units proportional
// to its expected solve cost (a 64-core ReBudget solve is hundreds of times
// an 8-core equal-share touch, and admission prices it that way), not one
// slot per request. Waiters queue strictly FIFO — a long waiter can never
// lose its turn to a fresh arrival — and respect their request deadline.
// Oversize requests (cost > capacity) are clamped to the full capacity, so
// they admit alone once the dispatcher drains rather than deadlocking.
//
// The wait queue is bounded two ways: by request count (maxWait, the
// pre-cost-admission contract) and by queued cost depth (maxQueuedCost), so
// a queue of expensive solves rejects early — the work ahead of a waiter,
// not the number of requests ahead, is what bounds its latency. Requests
// beyond either bound fail fast with errBusy and a Retry-After computed
// from the queue's cost depth.
type dispatcher struct {
	capacity      float64
	maxWait       int
	maxQueuedCost float64

	mu         sync.Mutex
	inUse      float64    // cost units currently claimed
	holding    int        // leases currently held (legacy request-count gauge)
	queue      *list.List // of *waiter, FIFO
	queuedCost float64    // cost units waiting in the queue

	// ewmaHold tracks mean lease hold time (seconds) so Retry-After can
	// translate the queue's cost depth into a drain-time estimate.
	ewmaHold float64
}

// waiter is one queued acquire; ready is closed (under d.mu) when its cost
// has been claimed on its behalf.
type waiter struct {
	cost  float64
	ready chan struct{}
}

// lease is a claimed cost reservation. Exactly one release per lease.
type lease struct {
	d     *dispatcher
	cost  float64
	start time.Time
}

// holdAlpha is the EWMA weight for the lease hold-time estimate.
const holdAlpha = 0.2

// minLeaseCost floors a lease so a zero/negative estimate can't make
// admission free.
const minLeaseCost = 0.25

func newDispatcher(capacity float64, maxWait int, maxQueuedCost float64) *dispatcher {
	if capacity < 1 {
		capacity = 1
	}
	if maxQueuedCost <= 0 {
		maxQueuedCost = 4 * capacity
	}
	return &dispatcher{
		capacity:      capacity,
		maxWait:       maxWait,
		maxQueuedCost: maxQueuedCost,
		queue:         list.New(),
	}
}

// clamp bounds a requested cost to what one lease may claim: at least
// minLeaseCost, at most the whole capacity (the oversize-admits-alone rule).
func (d *dispatcher) clamp(cost float64) float64 {
	if cost < minLeaseCost {
		return minLeaseCost
	}
	if cost > d.capacity {
		return d.capacity
	}
	return cost
}

// acquire claims cost units, waiting FIFO (bounded) for capacity to free up.
func (d *dispatcher) acquire(ctx context.Context, cost float64) (*lease, error) {
	cost = d.clamp(cost)
	d.mu.Lock()
	// Admit immediately only when nobody is queued ahead — otherwise a
	// small fresh request would overtake waiters (the starvation bug this
	// FIFO queue replaced a bare channel select to fix).
	if d.queue.Len() == 0 && d.inUse+cost <= d.capacity {
		d.inUse += cost
		d.holding++
		d.mu.Unlock()
		return &lease{d: d, cost: cost, start: time.Now()}, nil
	}
	if d.queue.Len() >= d.maxWait || d.queuedCost+cost > d.maxQueuedCost {
		d.mu.Unlock()
		return nil, errBusy
	}
	w := &waiter{cost: cost, ready: make(chan struct{})}
	elem := d.queue.PushBack(w)
	d.queuedCost += cost
	d.mu.Unlock()

	select {
	case <-w.ready:
		return &lease{d: d, cost: cost, start: time.Now()}, nil
	case <-ctx.Done():
		d.mu.Lock()
		select {
		case <-w.ready:
			// Granted concurrently with cancellation: hand the units back
			// (which may wake the next waiter) and fail the request.
			d.releaseLocked(cost, 0)
			d.mu.Unlock()
		default:
			d.queue.Remove(elem)
			d.queuedCost -= w.cost
			if d.queue.Len() == 0 {
				d.queuedCost = 0
			}
			d.mu.Unlock()
		}
		return nil, ctx.Err()
	}
}

// tryAcquire claims cost units only if they are free right now AND nobody
// is queued — ticker epochs are background work and must not barge past
// interactive waiters (they drop instead, and are counted).
func (d *dispatcher) tryAcquire(cost float64) (*lease, bool) {
	cost = d.clamp(cost)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.queue.Len() > 0 || d.inUse+cost > d.capacity {
		return nil, false
	}
	d.inUse += cost
	d.holding++
	return &lease{d: d, cost: cost, start: time.Now()}, true
}

// release returns the lease's units and wakes queued waiters in FIFO order.
func (l *lease) release() {
	l.d.mu.Lock()
	l.d.releaseLocked(l.cost, time.Since(l.start))
	l.d.mu.Unlock()
}

// releaseLocked returns cost units, folds the hold time into the drain-rate
// estimate (hold 0 = bookkeeping-only, skip), and grants the queue head(s).
func (d *dispatcher) releaseLocked(cost float64, hold time.Duration) {
	d.inUse -= cost
	d.holding--
	if d.holding == 0 {
		// Mixed-cost adds and subtracts leave float residue; an idle
		// dispatcher must read exactly zero.
		d.inUse = 0
	}
	if hold > 0 {
		s := hold.Seconds()
		if d.ewmaHold == 0 {
			d.ewmaHold = s
		} else {
			d.ewmaHold += holdAlpha * (s - d.ewmaHold)
		}
	}
	// Strict FIFO: grant from the front while the head fits. A big head
	// that doesn't fit blocks the line — that is the no-starvation
	// guarantee for expensive requests, not a defect.
	for d.queue.Len() > 0 {
		w := d.queue.Front().Value.(*waiter)
		if d.inUse+w.cost > d.capacity {
			break
		}
		d.queue.Remove(d.queue.Front())
		d.queuedCost -= w.cost
		d.inUse += w.cost
		d.holding++
		close(w.ready)
	}
	if d.queue.Len() == 0 {
		// Same float-residue snap as inUse: an empty queue reads zero.
		d.queuedCost = 0
	}
}

// retryAfter estimates how long until the current queue drains: the
// outstanding cost (claimed + queued) measured in dispatcher-fulls, each
// taking about one mean lease hold. It reflects the queue's cost *depth* —
// a queue of three 64-core solves hints a far longer retry than three
// equal-share touches, even though both have length three.
func (d *dispatcher) retryAfter() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	hold := d.ewmaHold
	if hold == 0 {
		hold = 0.05 // no completions yet: a plausible allocation-epoch guess
	}
	full := (d.inUse + d.queuedCost) / d.capacity
	return time.Duration(full * hold * float64(time.Second))
}

// inFlightCost reports cost units currently claimed (for /metrics).
func (d *dispatcher) inFlightCost() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inUse
}

// queuedCostUnits reports cost units currently waiting (for /metrics).
func (d *dispatcher) queuedCostUnits() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.queuedCost
}
