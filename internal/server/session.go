package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rebudget/internal/metrics"
)

// engine is what a session goroutine drives: one allocation step per epoch,
// telemetry applied between epochs, and read-side summaries. Implementations
// (marketEngine, simEngine) are single-owner — only the session loop calls
// these methods, so they need no locking.
type engine interface {
	step() error
	telemetry(TelemetrySpec) error
	view() SessionView
	result() (*SimResultView, error)
	healthState() metrics.HealthState
	// cores reports the engine's actual problem size, recalibrating the
	// admission-cost prior once the bundle is built.
	cores() int
	// snapshot fills the engine's durable state into snap. Only called
	// once the session loop has exited, so the single-owner invariant
	// still holds.
	snapshot(snap *SessionSnapshot)
	// restore installs a snapshot's durable state on a freshly built
	// engine (before the session loop starts).
	restore(snap *SessionSnapshot) error
}

// request kinds flowing through a session's mailbox.
const (
	reqEpoch = iota
	reqTelemetry
	reqResult
)

type request struct {
	kind   int
	epochs int           // reqEpoch: how many epochs to step under one slot
	tele   TelemetrySpec // reqTelemetry payload
	reply  chan response // buffered(1); the loop never blocks replying
}

type response struct {
	view   SessionView
	result *SimResultView
	err    error
}

var (
	// errSessionClosed is returned to requests caught in the mailbox when
	// the session stops (evicted or deleted) — surfaced as HTTP 410.
	errSessionClosed = errors.New("session closed")
	// errMailboxFull is per-session backpressure: the session's bounded
	// mailbox is at capacity — surfaced as HTTP 429.
	errMailboxFull = errors.New("session mailbox full")
)

// Session lifecycle states, guarded by lifeMu. Running sessions own a loop
// goroutine; parked (hibernated) sessions own nothing but an in-memory
// snapshot — the server's unpark path rebuilds the engine and loop on the
// next touch; closed is terminal.
const (
	stateRunning = iota
	stateParked
	stateClosed
)

// session owns one engine behind a bounded mailbox served by a dedicated
// goroutine — the concurrency unit of the daemon. All engine access is
// serialised through the loop; handlers read the cached view under mu.
//
// A session can hibernate: park() snapshots the engine into memory, drops
// it, and lets the loop goroutine exit, so an idle resident session costs a
// struct and a snapshot instead of an engine, a goroutine and a timer. The
// stop/done channels are per-run — resume() makes fresh ones — and the
// engine-rebuild half of unparking lives in the server, which owns engine
// construction.
type session struct {
	id        string
	mode      string
	mechanism string
	category  string
	created   time.Time
	spec      SessionSpec // retained for snapshots

	eng  engine // nil while parked; guarded by the lifecycle, not a mutex
	disp *dispatcher
	met  *srvMetrics

	// cost is the session's EWMA admission-cost estimate.
	cost *costEstimator

	// tick > 0 makes the loop step one epoch per period on its own ticker.
	tick time.Duration

	reqs chan *request

	lifeMu   sync.Mutex // guards state, stop, done, hib, eng swaps
	state    int
	stop     chan struct{}
	done     chan struct{}
	hib      *SessionSnapshot // in-memory hibernation snapshot while parked
	parkedFl atomic.Bool      // mirror of state == stateParked, for lock-free reads

	mu       sync.Mutex
	lastUsed time.Time
	epochs   int64
	cached   SessionView
	lastErr  string
	health   metrics.HealthState

	// Token bucket for per-session rate limiting (nil tokensPerSec
	// disables). Epoch requests spend one token per epoch; refill is lazy
	// on each spend, under mu.
	tokensPerSec float64
	tokenBurst   float64
	tokens       float64
	tokenStamp   time.Time
}

// mailboxDepth bounds each session's queued requests; a full mailbox
// answers 429.
const mailboxDepth = 8

// newSession wraps an engine and starts its loop. A spec with a ticker
// period additionally has the loop step one epoch per period. rps > 0 arms
// the per-session token bucket, max(1, 2×rps) tokens deep and full.
func newSession(id string, spec SessionSpec, eng engine, est *costEstimator,
	disp *dispatcher, met *srvMetrics, rps float64, epochs int64, now time.Time) *session {
	burst := max(1, 2*rps)
	s := &session{
		id:        id,
		mode:      spec.mode(),
		mechanism: spec.Mechanism,
		category:  spec.Workload.Category,
		created:   now,
		spec:      spec,
		eng:       eng,
		disp:      disp,
		met:       met,
		cost:      est,
		tick:      time.Duration(spec.TickerMillis) * time.Millisecond,
		reqs:      make(chan *request, mailboxDepth),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		lastUsed:  now,
		epochs:    epochs,

		tokensPerSec: rps,
		tokenBurst:   burst,
		tokens:       burst,
		tokenStamp:   now,
	}
	s.refresh("")
	go s.loop(s.stop, s.done)
	return s
}

// spend debits n tokens from the session's rate-limit bucket. A refusal is
// a kindRateLimit error carrying how long until the bucket holds n tokens
// again (the Retry-After hint). Unarmed buckets admit everything.
func (s *session) spend(n int, now time.Time) error {
	if s.tokensPerSec <= 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if dt := now.Sub(s.tokenStamp).Seconds(); dt > 0 {
		s.tokens += dt * s.tokensPerSec
		if s.tokens > s.tokenBurst {
			s.tokens = s.tokenBurst
		}
	}
	s.tokenStamp = now
	need := float64(n)
	if s.tokens >= need {
		s.tokens -= need
		return nil
	}
	return &spineError{kindRateLimit, fmt.Sprintf("session %q rate limited", s.id),
		time.Duration((need - s.tokens) / s.tokensPerSec * float64(time.Second))}
}

// epochCost prices an n-epoch request for admission: n × the session's
// EWMA per-epoch estimate.
func (s *session) epochCost(n int) float64 { return float64(n) * s.cost.epochCost() }

// costEstimate reports the per-epoch cost estimate for /metrics.
func (s *session) costEstimate() float64 { return s.cost.epochCost() }

// snapshot captures the session's durable state. It must only be called
// after close() or park() — the loop has exited, so reading the engine
// off-loop is safe. A hibernating session already holds its snapshot in
// memory and hands that back.
func (s *session) snapshot(now time.Time) *SessionSnapshot {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	return s.snapshotLocked(now)
}

func (s *session) snapshotLocked(now time.Time) *SessionSnapshot {
	if s.hib != nil {
		s.hib.SavedAt = now
		return s.hib
	}
	s.mu.Lock()
	snap := &SessionSnapshot{
		Version:   SnapshotVersion,
		ID:        s.id,
		Spec:      s.spec,
		Epochs:    s.epochs,
		Health:    s.health.String(),
		SavedAt:   now,
		EpochCost: s.cost.epochCost(),
	}
	s.mu.Unlock()
	s.eng.snapshot(snap)
	return snap
}

// loop is the session goroutine: it serves mailbox requests, runs a ticker
// epoch each period when the session has one, and on stop drains queued
// requests with errSessionClosed. The ticker is the loop's own and stops
// with it; a tick that comes due while the loop is busy is coalesced by the
// runtime, never queued behind client requests. The stop/done channels are
// passed in because they are per-run: a parked session's next run gets
// fresh ones.
func (s *session) loop(stop, done chan struct{}) {
	defer close(done)
	var tickC <-chan time.Time // stays nil (never ready) without a ticker
	if s.tick > 0 {
		t := time.NewTicker(s.tick)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case <-stop:
			for {
				select {
				case req := <-s.reqs:
					if req.reply != nil {
						req.reply <- response{err: errSessionClosed}
					}
				default:
					return
				}
			}
		case req := <-s.reqs:
			s.handle(req)
		case <-tickC:
			s.tickEpoch()
		}
	}
}

// tickEpoch runs one ticker-driven epoch if a dispatcher slot is free right
// now; a busy dispatcher drops the tick (and counts it) rather than queueing
// unbounded background work behind interactive requests.
func (s *session) tickEpoch() {
	l, ok := s.disp.tryAcquire(s.epochCost(1))
	if !ok {
		s.met.tickerDropped.Add(1)
		return
	}
	defer l.release()
	s.runEpochs(1)
}

// handle serves one mailbox request on the loop goroutine.
func (s *session) handle(req *request) {
	var resp response
	switch req.kind {
	case reqEpoch:
		resp.err = s.runEpochs(req.epochs)
	case reqTelemetry:
		resp.err = s.eng.telemetry(req.tele)
		s.refresh(errString(resp.err))
	case reqResult:
		resp.result, resp.err = s.eng.result()
	}
	resp.view = s.View()
	req.reply <- resp
}

// runEpochs steps the engine n times, refreshing the cached view once.
func (s *session) runEpochs(n int) error {
	var err error
	ran := int64(0)
	for i := 0; i < n; i++ {
		if err = s.eng.step(); err != nil {
			break
		}
		ran++
	}
	s.mu.Lock()
	s.epochs += ran
	s.mu.Unlock()
	s.met.epochsServed.Add(ran)
	s.cost.update(ran)
	s.refresh(errString(err))
	return err
}

// refresh re-renders the cached view from the engine (loop goroutine only,
// or with the loop stopped) and publishes it under mu for concurrent readers.
func (s *session) refresh(lastErr string) {
	v := s.eng.view()
	h := s.eng.healthState()
	s.mu.Lock()
	v.ID = s.id
	v.Tenant = s.spec.Tenant
	v.Mechanism = s.mechanism
	v.Category = s.category
	v.Epochs = s.epochs
	v.Health = h.String()
	v.CreatedAt = s.created
	v.LastUsed = s.lastUsed
	if lastErr != "" {
		s.lastErr = lastErr
	}
	v.LastError = s.lastErr
	s.cached = v
	s.health = h
	s.mu.Unlock()
}

// enqueue submits a request to the session loop and waits for the reply,
// respecting ctx. A full mailbox fails fast with errMailboxFull (per-session
// backpressure) instead of queueing unboundedly. Epoch requests must already
// hold a dispatcher slot, and parked sessions must be unparked first
// (Server.wake) — a request racing a park sees errSessionClosed,
// exactly like one racing an idle eviction.
func (s *session) enqueue(ctx context.Context, req *request) response {
	req.reply = make(chan response, 1)
	s.lifeMu.Lock()
	if s.state != stateRunning {
		s.lifeMu.Unlock()
		return response{err: errSessionClosed}
	}
	stop := s.stop
	s.lifeMu.Unlock()
	select {
	case s.reqs <- req:
	case <-stop:
		return response{err: errSessionClosed}
	default:
		return response{err: errMailboxFull}
	}
	select {
	case resp := <-req.reply:
		return resp
	case <-ctx.Done():
		return response{err: ctx.Err()}
	}
}

// View returns the last published snapshot of the session.
func (s *session) View() SessionView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.cached
	v.LastUsed = s.lastUsed
	return v
}

// Health returns the last published FSM state.
func (s *session) Health() metrics.HealthState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.health
}

// touch records client activity for idle-TTL and hibernation accounting.
func (s *session) touch(now time.Time) {
	s.mu.Lock()
	s.lastUsed = now
	s.mu.Unlock()
}

// LastUsed returns the idle-TTL clock value.
func (s *session) LastUsed() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastUsed
}

// isParked reports whether the session is hibernating (lock-free; the flag
// mirrors state == stateParked).
func (s *session) isParked() bool { return s.parkedFl.Load() }

// park hibernates a running session: the loop goroutine exits, the engine's
// durable state moves into an in-memory snapshot (the same bytes the retire
// path would persist), and the engine is dropped for the GC. minIdle > 0
// re-checks freshness under the lifecycle lock so a touch that raced the
// sweep aborts the park; pass 0 to force. Reports whether the session is now
// parked by this call.
func (s *session) park(now time.Time, minIdle time.Duration) bool {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.state != stateRunning {
		return false
	}
	if minIdle > 0 && now.Sub(s.LastUsed()) < minIdle {
		return false
	}
	close(s.stop)
	<-s.done
	s.hib = s.snapshotLocked(now)
	s.eng = nil
	s.state = stateParked
	s.parkedFl.Store(true)
	return true
}

// resume installs a freshly rebuilt engine on a parked session and restarts
// its loop. Caller must hold lifeMu (Server.wake does) and have restored
// the engine from s.hib.
func (s *session) resume(eng engine) {
	s.eng = eng
	s.hib = nil
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	s.state = stateRunning
	s.parkedFl.Store(false)
	// Re-render the cached view before the loop starts — the engine is
	// still single-owner here.
	s.refresh("")
	go s.loop(s.stop, s.done)
}

// close stops the loop (if running) and waits for it to exit. Safe to call
// repeatedly and from any goroutine; closing a parked session just marks it
// terminal — there is no loop to stop.
func (s *session) close() {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.state == stateRunning {
		close(s.stop)
		<-s.done
	}
	s.state = stateClosed
	s.parkedFl.Store(false)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
