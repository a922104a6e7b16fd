package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/snapshot"
)

// Config sizes the daemon. Zero values select the documented defaults.
type Config struct {
	// MaxSessions caps resident sessions; the LRU session is evicted to
	// admit a new one past the cap (default 128).
	MaxSessions int
	// IdleTTL evicts sessions untouched by any client for this long
	// (default 10m; <0 disables).
	IdleTTL time.Duration
	// ParkAfter hibernates sessions untouched by any client for this long
	// but not yet idle enough to evict: the loop goroutine exits, the
	// engine collapses into an in-memory snapshot, and the next touch
	// rebuilds it warm (bit-identical, via the rehydrate machinery). Ticker
	// sessions never park — they are active by definition. Default 5m;
	// <0 disables. Parking is what lets 100k resident-but-idle sessions
	// cost ~0 goroutines.
	ParkAfter time.Duration
	// APIKey, when set, requires `Authorization: Bearer <key>` on every
	// mutating endpoint (create/epoch/evict/telemetry/delete). Reads —
	// /healthz, /metrics, session GETs — stay open for probes and scrapes.
	APIKey string
	// CostCapacity is the dispatcher's concurrent budget in cost units
	// (default 8×GOMAXPROCS: one unit is a cheap 8-core epoch, so each
	// core carries ~8 cheap epochs' worth of admitted work). Requests spend
	// weighted units from their session's EWMA cost estimate. The wait
	// queue behind it holds at most max(64, 4×GOMAXPROCS) requests and
	// 4×CostCapacity queued units; beyond either the daemon answers 429 +
	// Retry-After.
	CostCapacity float64
	// RequestTimeout is the per-request deadline for allocation work
	// (default 10s).
	RequestTimeout time.Duration
	// Snapshots, when non-nil, persists session state across evictions and
	// shutdown: evicted/drained sessions are serialized to the store, and a
	// request touching a non-resident id lazily rehydrates it (warm bids,
	// telemetry state, sim replay) instead of answering 404. Sharing one
	// store (e.g. a snapshot.FileStore directory) across shards is what lets
	// the router migrate sessions between backends.
	Snapshots snapshot.Store
	// SessionRPS arms a per-session token bucket: each session may spend at
	// most this many epochs per second on average, and a quiet session may
	// burst max(1, 2×SessionRPS) epochs before the rate gates. Beyond it
	// epoch requests answer 429 with a computed Retry-After. 0 disables
	// rate limiting.
	SessionRPS float64
	// Tenancy, when non-nil, arms the hierarchical tenant budget economy:
	// per-tenant cost sub-budgets over the dispatcher's capacity, with
	// epoch-driven lending and bounded reclaim (see internal/tenant and
	// DESIGN.md "Tenant economy"). Must be valid (pre-validate with
	// ParseTenants / tenant.New); New panics on a malformed tree rather
	// than silently serving untenanted.
	Tenancy *TenancyConfig
	// Logger receives structured request/lifecycle logs (default
	// slog.Default()).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 128
	}
	if c.IdleTTL == 0 {
		c.IdleTTL = 10 * time.Minute
	}
	if c.ParkAfter == 0 {
		c.ParkAfter = 5 * time.Minute
	}
	if c.CostCapacity <= 0 {
		c.CostCapacity = 8 * float64(runtime.GOMAXPROCS(0))
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the rebudgetd daemon: session registry, dispatcher, metrics and
// the HTTP API. Construct with New, mount Handler, Close when done.
type Server struct {
	cfg   Config
	log   *slog.Logger
	store *store
	disp  *dispatcher
	gov   *tenantGovernor // nil unless Config.Tenancy is set
	met   *srvMetrics
	mux   *http.ServeMux

	started  time.Time
	draining atomic.Bool
	closed   atomic.Bool
	idSeq    atomic.Int64

	janitorStop chan struct{}
	janitorDone chan struct{}
}

// New builds a server and starts its idle-TTL janitor.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		log:         cfg.Logger,
		store:       newStore(cfg.MaxSessions, cfg.IdleTTL),
		disp:        newDispatcher(cfg.CostCapacity, max(64, 4*runtime.GOMAXPROCS(0)), 4*cfg.CostCapacity),
		met:         &srvMetrics{},
		mux:         http.NewServeMux(),
		started:     time.Now(),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	if cfg.Tenancy != nil {
		gov, err := newTenantGovernor(*cfg.Tenancy, cfg.CostCapacity, s.log)
		if err != nil {
			panic(fmt.Sprintf("server: invalid tenancy config: %v", err))
		}
		s.gov = gov
	}
	s.routes()
	go s.janitor()
	return s
}

func (s *Server) routes() {
	s.handle("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleList)
	s.handle("GET /v1/sessions/{id}", s.handleGet)
	s.handle("DELETE /v1/sessions/{id}", s.handleDelete)
	s.handle("POST /v1/sessions/{id}/epoch", s.handleEpoch)
	s.handle("POST /v1/sessions/{id}/evict", s.handleEvict)
	s.handle("POST /v1/sessions/{id}/telemetry", s.handleTelemetry)
	s.handle("GET /v1/sessions/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// handle mounts an endpoint that can refuse: the handler writes its own
// success response and returns any refusal for replyError to answer.
func (s *Server) handle(pattern string, h func(http.ResponseWriter, *http.Request) error) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if err := h(w, r); err != nil {
			s.replyError(w, err)
		}
	})
}

// Handler returns the daemon's HTTP handler (logging + metrics wrapped,
// API-key auth when configured).
func (s *Server) Handler() http.Handler {
	return s.met.requests.Instrument(s.log, "request", s.authenticate(s.mux))
}

// authenticate guards mutating endpoints with a bearer API key when
// Config.APIKey is set. Reads stay open: health probes, scrapes, and view
// GETs carry no state-changing power, and the router's probe loop must work
// without credentials. The comparison is constant-time; a miss is
// errUnauthorized: a 401 counted under rejected{reason="auth"}.
func (s *Server) authenticate(next http.Handler) http.Handler {
	if s.cfg.APIKey == "" {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet || r.Method == http.MethodHead {
			next.ServeHTTP(w, r)
			return
		}
		if !api.Bearer(r, s.cfg.APIKey) {
			s.replyError(w, errUnauthorized)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// StartDrain flips the daemon into drain mode: /healthz reports 503 so load
// balancers stop routing, and new sessions are refused. Existing sessions
// keep serving until Close.
func (s *Server) StartDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.log.Info("draining")
	}
}

// Close stops the janitor and closes every session, waiting for their
// goroutines to exit and snapshotting each to the configured store. The
// HTTP listener (owned by the caller) should be shut down first. Close is
// idempotent: a drain path racing a shutdown path must not panic.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	close(s.janitorStop)
	<-s.janitorDone
	if s.gov != nil {
		s.gov.close()
	}
	for _, sess := range s.store.drain() {
		s.retire(sess, "drain")
	}
}

// retire closes an evicted session and, when a snapshot store is
// configured, persists its durable state so the next touch — here or on
// another shard sharing the store — resumes warm. Snapshot failures are
// logged and counted, never fatal: the session is already gone.
func (s *Server) retire(sess *session, reason string) {
	sess.close()
	s.met.evicted.Inc(fmt.Sprintf("reason=%q", reason))
	if s.cfg.Snapshots == nil {
		return
	}
	if err := s.cfg.Snapshots.Save(sess.snapshot(time.Now())); err != nil {
		s.met.snapshots.Inc(`op="save_error"`)
		s.log.Warn("snapshot save failed", "id", sess.id, "err", err)
		return
	}
	s.met.snapshots.Inc(`op="save"`)
	s.log.Info("session snapshotted", "id", sess.id, "reason", reason)
}

// buildEngine constructs a session engine from its spec; a non-nil snap
// additionally restores durable state (warm bids and telemetry for market
// engines, deterministic replay for sim engines). Only materialise calls it,
// under an admission — construction and replay are allocation-grade work.
// est is chained behind the server-wide equilibrium observer so every solve
// the engine runs also feeds the session's cost estimate, then recalibrated
// to the engine's actual core count (construction-time solves — sim warmup,
// replay — are drained so they don't inflate the first served epoch's
// sample).
func (s *Server) buildEngine(spec api.SessionSpec, snap *snapshot.Session, est *costEstimator) (engine, error) {
	bundle, err := buildBundle(spec.Workload)
	if err != nil {
		return nil, err
	}
	observer := func(rounds, bidSteps int, wall time.Duration) {
		s.met.eq.Observe(rounds, bidSteps, wall)
		est.observe(rounds, bidSteps, wall)
	}
	var eng engine
	switch mode(spec) {
	case api.ModeSim:
		eng, err = newSimEngine(spec, bundle, observer)
	default:
		eng, err = newMarketEngine(spec, bundle, observer)
	}
	if err != nil {
		return nil, err
	}
	if snap != nil {
		if err := eng.restore(snap); err != nil {
			return nil, err
		}
	}
	est.recalibrate(eng.cores())
	est.resetPending()
	return eng, nil
}

// janitor sweeps idle sessions (TTL eviction) and parks idle-but-resident
// ones (hibernation) on a fraction of whichever deadline is shorter.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	var period time.Duration
	if ttl := s.cfg.IdleTTL; ttl > 0 {
		period = ttl / 4
	}
	if pa := s.cfg.ParkAfter; pa > 0 {
		if p := pa / 2; period == 0 || p < period {
			period = p
		}
	}
	if period == 0 {
		<-s.janitorStop
		return
	}
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case now := <-t.C:
			for _, sess := range s.store.sweepIdle(now) {
				s.retire(sess, "idle")
				s.log.Info("session evicted", "id", sess.id, "reason", "idle")
			}
			s.parkSweep(now)
		}
	}
}

// parkSweep hibernates sessions idle past ParkAfter but not yet TTL-evicted.
// Ticker sessions are exempt — they self-drive epochs and are never idle by
// design; bound them with rate limits, not hibernation. park() re-checks
// freshness under the lifecycle lock, so a touch racing the sweep wins.
func (s *Server) parkSweep(now time.Time) {
	pa := s.cfg.ParkAfter
	if pa <= 0 {
		return
	}
	for _, sess := range s.store.idleCandidates(now, pa) {
		if sess.isParked() || sess.tick > 0 {
			continue
		}
		if sess.park(now, pa) {
			s.met.parked.Add(1)
			s.log.Info("session parked", "id", sess.id)
		}
	}
}

// --- request spine ---
//
// Every request walks resolve → rate limit → admit → run → reply. The stages
// below return errors, never HTTP: a refusal is a *spineError naming the
// stage's reason (or one of the dispatcher/session sentinels), and replyError
// is the one place those become a status, a Retry-After and a
// rejected{reason} count.

// admit is the spine's one admission bracket. It charges cost against the
// tenant's granted sub-budget (a no-op without a governor or label) — so one
// tenant saturating its grant gets 429s while its neighbours' budgets stay
// untouched — and then against the dispatcher, waiting FIFO until ctx
// expires. The returned release hands both charges back; call it exactly
// once. Create, rehydrate and unpark come here through materialise, epochs
// directly.
func (s *Server) admit(ctx context.Context, tenant string, cost float64) (release func(), err error) {
	if ok, retryAfter := s.gov.admit(tenant, cost); !ok {
		return nil, &spineError{kindTenant, fmt.Sprintf("tenant %q over budget", tenant), retryAfter}
	}
	lease, err := s.disp.acquire(ctx, cost)
	if err != nil {
		s.gov.release(tenant, cost)
		return nil, err
	}
	return func() { lease.release(); s.gov.release(tenant, cost) }, nil
}

// materialise is the one path by which a session gets its engine: admit at
// the estimator's price (the analytic prior for a create, the measured
// history for a rehydrate or unpark), build — restoring snap when non-nil —
// and release. Engine construction is allocation-grade work (sim warmup runs
// whole epochs), so it competes for capacity like any epoch. A build failure
// comes back as kindBadInput; what that means is the caller's call.
func (s *Server) materialise(ctx context.Context, spec api.SessionSpec, snap *snapshot.Session, est *costEstimator) (engine, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	release, err := s.admit(ctx, spec.Tenant, est.epochCost())
	if err != nil {
		return nil, err
	}
	defer release()
	eng, err := s.buildEngine(spec, snap, est)
	if err != nil {
		return nil, errBadInput(err)
	}
	return eng, nil
}

// install makes (spec, snap) a resident session: price it — a snapshot
// carries its measured cost and served-epoch count, a fresh spec only its
// analytic prior — materialise the engine, wrap it in a session with the
// server's dispatcher, metrics and rate limit, add it to the store, and
// retire whatever the store evicted to make room.
func (s *Server) install(ctx context.Context, id string, spec api.SessionSpec, snap *snapshot.Session) (*session, error) {
	est := newCostEstimator(guessCores(spec))
	var epochs int64
	if snap != nil {
		est.restore(snap.EpochCost)
		epochs = snap.Epochs
	}
	eng, err := s.materialise(ctx, spec, snap, est)
	if err != nil {
		return nil, err
	}
	sess := newSession(id, spec, eng, est, s.disp, s.met, s.cfg.SessionRPS, epochs, time.Now())
	evicted, err := s.store.add(sess)
	if err != nil {
		sess.close()
		return nil, &spineError{kind: kindConflict, msg: err.Error()}
	}
	if evicted != nil {
		s.retire(evicted, "capacity")
		s.log.Info("session evicted", "id", evicted.id, "reason", "capacity")
	}
	return sess, nil
}

// resolve finds the session a request names, touching it for LRU/TTL
// accounting. A non-resident id falls through to the snapshot store — the
// "lazily rehydrate on next touch" half of durable sessions. Endpoints that
// need the engine loop (epoch, telemetry, result) pass needEngine, which
// wakes a hibernating session first; pure reads serve the cached view
// without paying an engine rebuild.
func (s *Server) resolve(r *http.Request, needEngine bool) (*session, error) {
	id := r.PathValue("id")
	sess := s.store.get(id)
	if sess == nil {
		var err error
		if sess, err = s.fromSnapshot(r.Context(), id); err != nil {
			return nil, err
		}
	}
	sess.touch(time.Now())
	if needEngine && sess.isParked() {
		if err := s.wake(r.Context(), sess); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// fromSnapshot rebuilds a non-resident session from its snapshot, if the
// configured store holds a usable one. An unusable (corrupt, truncated,
// wrong-version, unrestorable) snapshot degrades to not-found — a cold start
// for the client — never a 500.
func (s *Server) fromSnapshot(ctx context.Context, id string) (*session, error) {
	if s.cfg.Snapshots == nil {
		return nil, errNotFound(id)
	}
	snap, err := s.cfg.Snapshots.Load(id)
	if err != nil {
		if !errors.Is(err, snapshot.ErrNoSnapshot) {
			s.met.snapshots.Inc(`op="load_error"`)
			s.log.Warn("snapshot load failed, cold start", "id", id, "err", err)
		} else if err != snapshot.ErrNoSnapshot {
			// A file exists but is unusable: cold start, counted.
			s.met.snapshots.Inc(`op="corrupt"`)
			s.log.Warn("snapshot unusable, cold start", "id", id, "err", err)
		}
		return nil, errNotFound(id)
	}
	if s.draining.Load() {
		// Same contract as create: a draining shard takes no new residents,
		// so the ring can move the session to a healthy one.
		return nil, errDraining
	}
	// Create validated this spec, but the snapshot may predate a rule: a
	// sim spec with resilient: true would restore without its wrapper and
	// replay a different allocator than the one that served it.
	if err := validate(snap.Spec); err != nil {
		s.met.snapshots.Inc(`op="restore_error"`)
		s.log.Warn("snapshot spec no longer valid, cold start", "id", id, "err", err)
		return nil, errNotFound(id)
	}
	// A snapshot predating the tenant economy (or from an untenanted
	// shard) rehydrates into the default tenant, like an unlabeled create.
	if snap.Spec.Tenant, err = s.gov.adopt(snap.Spec.Tenant); err != nil {
		s.log.Warn("tenant registration on rehydrate failed", "id", id,
			"tenant", snap.Spec.Tenant, "err", err)
	}
	sess, err := s.install(ctx, id, snap.Spec, snap)
	switch {
	case isKind(err, kindBadInput):
		s.met.snapshots.Inc(`op="restore_error"`)
		s.log.Warn("snapshot restore failed, cold start", "id", id, "err", err)
		return nil, errNotFound(id)
	case isKind(err, kindConflict):
		// A concurrent touch rehydrated the same id first; serve from the
		// now-resident copy (install already discarded ours).
		if resident := s.store.get(id); resident != nil {
			return resident, nil
		}
	}
	if err != nil {
		return nil, err
	}
	// Every snapshot that loads has had its integrity checksum verified.
	s.met.snapshots.Inc(`op="restore"`)
	s.met.snapshots.Inc(`op="verified"`)
	s.log.Info("session rehydrated", "id", id, "epochs", snap.Epochs, "saved_at", snap.SavedAt)
	return sess, nil
}

// wake unparks a hibernating session: rebuild the engine from the in-memory
// snapshot (the same restore path fromSnapshot uses, so outputs are
// bit-identical to an uninterrupted run) and restart the loop. The rebuild
// is admitted at the session's measured cost against its tenant and the
// dispatcher, like a rehydrate; a refusal leaves the session parked. No-op
// for a session some other request already woke.
func (s *Server) wake(ctx context.Context, sess *session) error {
	sess.lifeMu.Lock()
	defer sess.lifeMu.Unlock()
	switch sess.state {
	case stateRunning:
		return nil
	case stateClosed:
		return errSessionClosed
	}
	eng, err := s.materialise(ctx, sess.hib.Spec, sess.hib, sess.cost)
	if isKind(err, kindBadInput) {
		// The snapshot came from this session's own engine: failing to
		// restore it is our fault, not the caller's (%v, not %w).
		return fmt.Errorf("unpark %q: %v", sess.id, err)
	}
	if err != nil {
		return err
	}
	sess.resume(eng)
	s.met.unparked.Add(1)
	s.log.Info("session unparked", "id", sess.id)
	return nil
}

// --- HTTP plumbing ---

// decodeBody decodes a bounded JSON body into v; an empty body leaves v as
// the zero value.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	// Fast path: bodyless requests (epoch ticks at saturation) skip the
	// decoder allocation entirely.
	if r.Body == nil || r.Body == http.NoBody || r.ContentLength == 0 {
		return nil
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if errors.Is(err, io.EOF) {
		return nil
	}
	return err
}

// errKind is why a stage of the spine refused a request, with the status and
// rejected{reason} label ("" = not counted as a rejection) replyError answers
// it with. The 429 kinds carry their own Retry-After estimate.
type errKind struct {
	code   int
	reason string
}

var (
	kindAuth      = &errKind{http.StatusUnauthorized, `reason="auth"`}           // authenticate: no or wrong bearer key
	kindNotFound  = &errKind{http.StatusNotFound, ""}                            // resolve: not resident, no usable snapshot
	kindDraining  = &errKind{http.StatusServiceUnavailable, `reason="draining"`} // create, resolve: no new residents
	kindConflict  = &errKind{http.StatusConflict, ""}                            // install: the id is already resident
	kindRateLimit = &errKind{http.StatusTooManyRequests, `reason="ratelimit"`}   // the session's token bucket is empty
	kindTenant    = &errKind{http.StatusTooManyRequests, `reason="tenant"`}      // admit: the tenant is at its grant
	kindBadInput  = &errKind{http.StatusBadRequest, ""}                          // decode, build, run: the request's content
)

// spineError is a refusal by one stage of the request spine. retryAfter is
// the stage's own estimate of when to come back (rate limit: bucket refill;
// tenant: the next rebalance epoch).
type spineError struct {
	kind       *errKind
	msg        string
	retryAfter time.Duration
}

func (e *spineError) Error() string { return e.msg }

var (
	errUnauthorized = &spineError{kind: kindAuth, msg: "missing or invalid API key"}
	errDraining     = &spineError{kind: kindDraining, msg: "draining"}
)

func errNotFound(id string) error {
	return &spineError{kind: kindNotFound, msg: fmt.Sprintf("no session %q", id)}
}

func errBadInput(err error) error { return &spineError{kind: kindBadInput, msg: err.Error()} }

func isKind(err error, kind *errKind) bool {
	var se *spineError
	return errors.As(err, &se) && se.kind == kind
}

// replyError maps every error the spine can return onto its HTTP answer —
// with the errKind table above, the only place a status code, a Retry-After
// and a rejected{reason} label are chosen.
func (s *Server) replyError(w http.ResponseWriter, err error) {
	code, reason, msg := http.StatusInternalServerError, "", err.Error()
	var retryAfter time.Duration
	var se *spineError
	switch {
	case errors.As(err, &se):
		code, reason, msg, retryAfter = se.kind.code, se.kind.reason, se.msg, se.retryAfter
	case errors.Is(err, errBusy):
		// Retry-After is computed from the dispatcher's cost depth — the
		// work queued ahead, not the number of requests holding it.
		code, reason, retryAfter = http.StatusTooManyRequests, `reason="busy"`, s.disp.retryAfter()
	case errors.Is(err, errMailboxFull):
		code, reason = http.StatusTooManyRequests, `reason="mailbox"`
	case errors.Is(err, errSessionClosed):
		code = http.StatusGone
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// A stable message: clients match on the 503, not on Go's sentinel
		// strings.
		code, reason, msg = http.StatusServiceUnavailable, `reason="timeout"`, "request deadline exceeded"
	}
	if reason != "" {
		s.met.rejected.Inc(reason)
	}
	if code == http.StatusTooManyRequests {
		// Whole seconds, rounded up, min 1: the header cannot carry fractions.
		w.Header().Set("Retry-After", strconv.Itoa(max(1, int(math.Ceil(retryAfter.Seconds())))))
	}
	api.WriteError(w, code, msg)
}

// replyEngineError answers an engine-mediated failure (telemetry, result):
// infrastructure errors (closed session, full mailbox, expired deadline) map
// as they are, while anything else is the engine rejecting the request's
// content — the caller's fault, a 400.
func (s *Server) replyEngineError(w http.ResponseWriter, err error) {
	if !errors.Is(err, errSessionClosed) && !errors.Is(err, errMailboxFull) &&
		!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		err = errBadInput(err)
	}
	s.replyError(w, err)
}

// --- handlers ---

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) error {
	if s.draining.Load() {
		return errDraining
	}
	var spec api.SessionSpec
	if err := decodeBody(w, r, &spec); err != nil {
		return errBadInput(err)
	}
	if err := validate(spec); err != nil {
		return errBadInput(err)
	}
	// Under the tenant economy every session carries a label: the spec's,
	// else the router-forwarded header, else the default tenant. The label
	// self-registers in the tree (with an immediate rebalance, so the
	// newcomer holds its floor before its first admission check).
	if s.gov != nil && spec.Tenant == "" {
		spec.Tenant = r.Header.Get(api.TenantHeader)
		if spec.Tenant != "" && !validTenantPath(spec.Tenant) {
			return errBadInput(fmt.Errorf("header %s: tenant %q must be %s segments joined by \"/\"",
				api.TenantHeader, spec.Tenant, api.IDPattern))
		}
	}
	var err error
	if spec.Tenant, err = s.gov.adopt(spec.Tenant); err != nil {
		return errBadInput(err)
	}
	id := spec.ID
	if id == "" {
		id = fmt.Sprintf("s-%06d", s.idSeq.Add(1))
	}
	sess, err := s.install(r.Context(), id, spec, nil)
	if err != nil {
		return err
	}
	// A fresh session supersedes any stale snapshot under the same id; a
	// later touch must not resurrect the old one.
	if s.cfg.Snapshots != nil {
		if err := s.cfg.Snapshots.Delete(id); err != nil {
			s.log.Warn("stale snapshot delete failed", "id", id, "err", err)
		}
	}
	s.met.sessionsCreated.Add(1)
	s.log.Info("session created", "id", id, "mode", mode(spec), "mechanism", spec.Mechanism)
	api.WriteJSON(w, http.StatusCreated, sess.View())
	return nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	sessions := s.store.list()
	list := api.SessionList{Sessions: make([]api.SessionView, len(sessions))}
	for i, sess := range sessions {
		list.Sessions[i] = sess.View()
	}
	api.WriteJSON(w, http.StatusOK, list)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) error {
	sess, err := s.resolve(r, false)
	if err != nil {
		return err
	}
	api.WriteJSON(w, http.StatusOK, sess.View())
	return nil
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	sess := s.store.remove(id)
	if sess == nil {
		// Not resident, but a snapshotted session still "exists" durably:
		// deleting it removes the snapshot so nothing resurrects it.
		if s.cfg.Snapshots != nil {
			if _, err := s.cfg.Snapshots.Load(id); err == nil {
				_ = s.cfg.Snapshots.Delete(id)
				s.met.evicted.Inc(`reason="deleted"`)
				s.log.Info("snapshotted session deleted", "id", id)
				w.WriteHeader(http.StatusNoContent)
				return nil
			}
		}
		return errNotFound(id)
	}
	sess.close()
	s.met.evicted.Inc(`reason="deleted"`)
	if s.cfg.Snapshots != nil {
		if err := s.cfg.Snapshots.Delete(id); err != nil {
			s.log.Warn("snapshot delete failed", "id", id, "err", err)
		}
	}
	s.log.Info("session deleted", "id", id)
	w.WriteHeader(http.StatusNoContent)
	return nil
}

func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) error {
	sess, err := s.resolve(r, true)
	if err != nil {
		return err
	}
	var body api.EpochBody
	if err := decodeBody(w, r, &body); err != nil {
		return errBadInput(err)
	}
	n := body.Epochs
	if n == 0 {
		n = 1
	}
	if n < 1 || n > 1000 {
		return errBadInput(fmt.Errorf("epochs %d outside [1,1000]", n))
	}
	// Per-session rate limit: a batched request spends one token per epoch,
	// so batching cannot sidestep the budget.
	if err := sess.spend(n, time.Now()); err != nil {
		return err
	}
	// A batched request spends n epochs' worth of cost units under one
	// admission — batching cannot sidestep weighted admission either.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	release, err := s.admit(ctx, sess.spec.Tenant, sess.epochCost(n))
	if err != nil {
		return err
	}
	resp := sess.enqueue(ctx, &request{kind: reqEpoch, epochs: n})
	release()
	if resp.err != nil {
		return resp.err
	}
	api.WriteJSON(w, http.StatusOK, resp.view)
	return nil
}

// handleEvict retires a resident session to its snapshot on demand: the
// session closes, its durable state lands in the snapshot store, and the
// next touch — on this shard or any other sharing the store — rehydrates it
// warm. This is the router's migration verb: a ring rebalance drains each
// moved session here on its old owner, then routes it to the new one.
// Unlike DELETE, the snapshot is the point, not collateral to remove. A
// non-resident id answers 404; the caller treats that as already migrated
// (an eviction or drain got there first).
func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	sess := s.store.remove(id)
	if sess == nil {
		return errNotFound(id)
	}
	s.retire(sess, "migrate")
	s.log.Info("session evicted", "id", id, "reason", "migrate")
	w.WriteHeader(http.StatusNoContent)
	return nil
}

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) error {
	sess, err := s.resolve(r, true)
	if err != nil {
		return err
	}
	var tele api.TelemetrySpec
	if err := decodeBody(w, r, &tele); err != nil {
		return errBadInput(err)
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	resp := sess.enqueue(ctx, &request{kind: reqTelemetry, tele: tele})
	if resp.err != nil {
		s.replyEngineError(w, resp.err)
		return nil
	}
	api.WriteJSON(w, http.StatusOK, resp.view)
	return nil
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) error {
	sess, err := s.resolve(r, true)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	resp := sess.enqueue(ctx, &request{kind: reqResult})
	if resp.err != nil {
		s.replyEngineError(w, resp.err)
		return nil
	}
	api.WriteJSON(w, http.StatusOK, resp.result)
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := api.Healthz{
		Status:        "ok",
		Sessions:      s.store.len(),
		UptimeSeconds: int64(time.Since(s.started).Seconds()),
	}
	code := http.StatusOK
	if s.draining.Load() {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, code, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.render(w, s.store.list(), s.disp, s.gov, s.draining.Load(), time.Since(s.started))
}
