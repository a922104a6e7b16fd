package server

import (
	"context"
	"crypto/subtle"
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

	"rebudget/internal/expo"
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
	// PerSessionMetrics re-enables the unbounded per-session-id /metrics
	// series (rebudgetd_session_epochs{id}, _health{id}, _epoch_cost{id},
	// _tokens{id}) for debugging. Off by default: at density those series
	// dominate scrape cost, so the exposition carries a bounded cost
	// histogram + top-K offenders instead.
	PerSessionMetrics bool
	// APIKey, when set, requires `Authorization: Bearer <key>` on every
	// mutating endpoint (create/epoch/evict/telemetry/delete). Reads —
	// /healthz, /metrics, session GETs — stay open for probes and scrapes.
	APIKey string
	// Workers bounds allocation work in flight across all sessions
	// (default GOMAXPROCS).
	Workers int
	// MaxWaiting bounds requests queued for a worker slot; beyond it the
	// daemon answers 429 + Retry-After (default 4×Workers, min 64).
	MaxWaiting int
	// CostCapacity is the dispatcher's concurrent budget in cost units
	// (default 8×Workers: one unit is a cheap 8-core epoch, so each worker
	// slot carries ~8 cheap epochs' worth of admitted work). Requests spend
	// weighted units from their session's EWMA cost estimate.
	CostCapacity float64
	// MaxQueuedCost bounds the wait queue by cost depth (default
	// 4×CostCapacity): a queue holding a few expensive solves rejects as
	// readily as one holding many cheap touches, because it represents the
	// same wait.
	MaxQueuedCost float64
	// RequestTimeout is the per-request deadline for allocation work
	// (default 10s).
	RequestTimeout time.Duration
	// MailboxDepth is each session's queued-request bound (default 8).
	MailboxDepth int
	// Snapshots, when non-nil, persists session state across evictions and
	// shutdown: evicted/drained sessions are serialized to the store, and a
	// request touching a non-resident id lazily rehydrates it (warm bids,
	// telemetry state, sim replay) instead of answering 404. Sharing one
	// store (e.g. a FileSnapshotStore directory) across shards is what lets
	// the router migrate sessions between backends.
	Snapshots SnapshotStore
	// SessionRPS arms a per-session token bucket: each session may spend at
	// most this many epochs per second (averaged; see SessionBurst), beyond
	// which epoch requests answer 429 with a computed Retry-After. 0
	// disables rate limiting.
	SessionRPS float64
	// SessionBurst is the bucket depth (default 2×SessionRPS, min 1): how
	// many epochs a quiet session may burst before the average rate gates.
	SessionBurst float64
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
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxWaiting <= 0 {
		c.MaxWaiting = 4 * c.Workers
		if c.MaxWaiting < 64 {
			c.MaxWaiting = 64
		}
	}
	if c.CostCapacity <= 0 {
		c.CostCapacity = 8 * float64(c.Workers)
	}
	if c.MaxQueuedCost <= 0 {
		c.MaxQueuedCost = 4 * c.CostCapacity
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MailboxDepth <= 0 {
		c.MailboxDepth = 8
	}
	if c.SessionRPS > 0 && c.SessionBurst <= 0 {
		c.SessionBurst = 2 * c.SessionRPS
		if c.SessionBurst < 1 {
			c.SessionBurst = 1
		}
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
	wheel *timerWheel
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
		store:       newStore(cfg.MaxSessions, cfg.IdleTTL, 0),
		disp:        newDispatcher(cfg.CostCapacity, cfg.MaxWaiting, cfg.MaxQueuedCost),
		met:         &srvMetrics{},
		wheel:       newTimerWheel(wheelGranularity),
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
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleList)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/sessions/{id}/epoch", s.handleEpoch)
	s.mux.HandleFunc("POST /v1/sessions/{id}/evict", s.handleEvict)
	s.mux.HandleFunc("POST /v1/sessions/{id}/telemetry", s.handleTelemetry)
	s.mux.HandleFunc("GET /v1/sessions/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// Handler returns the daemon's HTTP handler (logging + metrics wrapped,
// API-key auth when configured).
func (s *Server) Handler() http.Handler {
	return s.instrument(s.authenticate(s.mux))
}

// authenticate guards mutating endpoints with a bearer API key when
// Config.APIKey is set. Reads stay open: health probes, scrapes, and view
// GETs carry no state-changing power, and the router's probe loop must work
// without credentials. The comparison is constant-time; a miss is a 401
// counted under rejected{reason="auth"}.
func (s *Server) authenticate(next http.Handler) http.Handler {
	if s.cfg.APIKey == "" {
		return next
	}
	expect := []byte("Bearer " + s.cfg.APIKey)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet || r.Method == http.MethodHead {
			next.ServeHTTP(w, r)
			return
		}
		got := []byte(r.Header.Get("Authorization"))
		if subtle.ConstantTimeCompare(got, expect) != 1 {
			s.met.rejected.Inc(`reason="auth"`)
			writeErr(w, http.StatusUnauthorized, "missing or invalid API key")
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

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

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
	s.wheel.close()
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

// Sessions reports the live session count.
func (s *Server) Sessions() int { return s.store.len() }

// buildEngine constructs a session engine from its spec; a non-nil snap
// additionally restores durable state (warm bids and telemetry for market
// engines, deterministic replay for sim engines). The caller must hold a
// dispatcher lease — construction and replay are allocation-grade work.
// A non-nil est is chained behind the server-wide equilibrium observer so
// every solve the engine runs also feeds the session's cost estimate, then
// recalibrated to the engine's actual core count (construction-time solves
// — sim warmup, replay — are drained so they don't inflate the first
// served epoch's sample).
func (s *Server) buildEngine(spec SessionSpec, snap *SessionSnapshot, est *costEstimator) (engine, error) {
	bundle, err := buildBundle(spec.Workload)
	if err != nil {
		return nil, err
	}
	observer := s.met.eq.Observe
	if est != nil {
		observer = func(rounds, bidSteps int, wall time.Duration) {
			s.met.eq.Observe(rounds, bidSteps, wall)
			est.observe(rounds, bidSteps, wall)
		}
	}
	var eng engine
	switch spec.mode() {
	case ModeSim:
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
	if est != nil {
		est.recalibrate(eng.cores())
		est.resetPending()
	}
	return eng, nil
}

// newSession assembles a session around an engine with the server's
// dispatcher, metrics, admission and rate-limit configuration. epochs seeds
// the served-epoch counter (nonzero only on rehydrate).
func (s *Server) newSession(id string, spec SessionSpec, eng engine, est *costEstimator, epochs int64) *session {
	return newSession(id, spec, eng, est,
		s.disp, s.met, s.wheel, s.cfg.MailboxDepth,
		s.cfg.SessionRPS, s.cfg.SessionBurst, epochs, time.Now())
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

// ensureRunning wakes a hibernating session: rebuild the engine from the
// in-memory snapshot (the same restore path rehydrate uses, so outputs are
// bit-identical to an uninterrupted run) and restart the loop. Engine
// rebuild is allocation-grade work — it competes for dispatcher capacity at
// the session's measured cost, like rehydrate. No-op for running sessions.
func (s *Server) ensureRunning(ctx context.Context, sess *session) error {
	if !sess.isParked() {
		return nil
	}
	sess.lifeMu.Lock()
	defer sess.lifeMu.Unlock()
	switch sess.state {
	case stateRunning:
		return nil
	case stateClosed:
		return errSessionClosed
	}
	lease, err := s.disp.acquire(ctx, sess.cost.epochCost())
	if err != nil {
		return err
	}
	eng, err := s.buildEngine(sess.hib.Spec, sess.hib, sess.cost)
	lease.release()
	if err != nil {
		return fmt.Errorf("unpark %q: %w", sess.id, err)
	}
	sess.resume(eng)
	s.met.unparked.Add(1)
	s.log.Info("session unparked", "id", sess.id)
	return nil
}

// --- HTTP plumbing ---

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps the mux with request logging and metrics.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		dur := time.Since(start)
		route := expo.RouteLabel(r.URL.Path)
		s.met.observeRequest(route, rec.code, dur)
		s.log.Info("request",
			"method", r.Method, "route", route, "path", r.URL.Path,
			"code", rec.code, "dur_ms", float64(dur.Microseconds())/1000)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	jw, err := encodeJSON(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(jw.buf.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(jw.buf.Bytes())
	putJSONWriter(jw)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, errorBody{Error: msg})
}

// writeRetryErr answers 429 with a computed Retry-After (whole seconds,
// rounded up, min 1 — the header cannot carry fractions).
func writeRetryErr(w http.ResponseWriter, retryAfter time.Duration, msg string) {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, errorBody{Error: msg})
}

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

// tenantAdmit charges cost units against the tenant's granted sub-budget;
// a no-op without a governor or label. On refusal it writes the 429
// (Retry-After = the next rebalance epoch) and reports false.
func (s *Server) tenantAdmit(w http.ResponseWriter, path string, cost float64) bool {
	if s.gov == nil || path == "" {
		return true
	}
	ok, retryAfter := s.gov.admit(path, cost)
	if !ok {
		s.met.rejected.Inc(`reason="tenant"`)
		writeRetryErr(w, retryAfter, fmt.Sprintf("tenant %q over budget", path))
	}
	return ok
}

// tenantRelease returns cost units admitted by tenantAdmit.
func (s *Server) tenantRelease(path string, cost float64) {
	if s.gov != nil && path != "" {
		s.gov.release(path, cost)
	}
}

// replyError maps session/dispatcher errors onto HTTP statuses.
func (s *Server) replyError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errBusy):
		// Retry-After is computed from the dispatcher's cost depth — the
		// work queued ahead, not the number of requests holding it.
		s.met.rejected.Inc(`reason="busy"`)
		writeRetryErr(w, s.disp.retryAfter(), err.Error())
	case errors.Is(err, errMailboxFull):
		s.met.rejected.Inc(`reason="mailbox"`)
		writeErr(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, errSessionClosed):
		writeErr(w, http.StatusGone, err.Error())
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.met.rejected.Inc(`reason="timeout"`)
		writeErr(w, http.StatusServiceUnavailable, "request deadline exceeded")
	default:
		writeErr(w, http.StatusInternalServerError, err.Error())
	}
}

// replyEngineError maps an engine-mediated failure: infrastructure
// errors (closed session, full mailbox, expired deadline) go through
// replyError's status mapping, while anything else is the engine
// rejecting the request's content — the caller's fault, a 400.
func (s *Server) replyEngineError(w http.ResponseWriter, err error) {
	if errors.Is(err, errSessionClosed) || errors.Is(err, errMailboxFull) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.replyError(w, err)
		return
	}
	writeErr(w, http.StatusBadRequest, err.Error())
}

// --- handlers ---

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.met.rejected.Inc(`reason="draining"`)
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var spec SessionSpec
	if err := decodeBody(w, r, &spec); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := spec.validate(); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	// Under the tenant economy every session carries a label: the spec's,
	// else the router-forwarded header, else the default tenant. The label
	// self-registers in the tree (with an immediate rebalance, so the
	// newcomer holds its floor before its first admission check).
	if s.gov != nil {
		if spec.Tenant == "" {
			spec.Tenant = r.Header.Get(TenantHeader)
			if spec.Tenant != "" && !validTenantPath(spec.Tenant) {
				writeErr(w, http.StatusBadRequest,
					fmt.Sprintf("header %s: tenant %q must be %s segments joined by \"/\"",
						TenantHeader, spec.Tenant, idPattern))
				return
			}
		}
		if spec.Tenant == "" {
			spec.Tenant = s.gov.defaultTenant
		}
		if err := s.gov.register(spec.Tenant); err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	// Engine construction is allocation-grade work (sim warmup runs whole
	// epochs), so it competes for dispatcher capacity like any epoch,
	// priced by the spec's analytic prior (no measurements exist yet) —
	// and, under tenancy, against the tenant's sub-budget first.
	est := newCostEstimator(spec.guessCores())
	createCost := est.epochCost()
	if !s.tenantAdmit(w, spec.Tenant, createCost) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	lease, err := s.disp.acquire(ctx, createCost)
	if err != nil {
		s.tenantRelease(spec.Tenant, createCost)
		s.replyError(w, err)
		return
	}
	eng, err := s.buildEngine(spec, nil, est)
	lease.release()
	s.tenantRelease(spec.Tenant, createCost)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	id := spec.ID
	if id == "" {
		id = fmt.Sprintf("s-%06d", s.idSeq.Add(1))
	}
	sess := s.newSession(id, spec, eng, est, 0)
	evicted, err := s.store.add(sess)
	if err != nil {
		sess.close()
		writeErr(w, http.StatusConflict, err.Error())
		return
	}
	if evicted != nil {
		s.retire(evicted, "capacity")
		s.log.Info("session evicted", "id", evicted.id, "reason", "capacity")
	}
	// A fresh session supersedes any stale snapshot under the same id; a
	// later touch must not resurrect the old one.
	if s.cfg.Snapshots != nil {
		if err := s.cfg.Snapshots.Delete(id); err != nil {
			s.log.Warn("stale snapshot delete failed", "id", id, "err", err)
		}
	}
	s.met.sessionsCreated.Add(1)
	s.log.Info("session created", "id", id, "mode", spec.mode(), "mechanism", spec.Mechanism)
	writeJSON(w, http.StatusCreated, sess.View())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	sessions := s.store.list()
	views := make([]SessionView, len(sessions))
	for i, sess := range sessions {
		views[i] = sess.View()
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": views})
}

// lookup resolves {id}, touching the session for LRU/TTL accounting. A
// non-resident id falls through to the snapshot store: this is the "lazily
// rehydrate on next touch" half of durable sessions.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *session {
	id := r.PathValue("id")
	sess := s.store.get(id)
	if sess == nil {
		if sess = s.rehydrate(w, r, id); sess == nil {
			return nil // rehydrate already wrote the error
		}
	}
	sess.touch(time.Now())
	return sess
}

// lookupRunning is lookup for endpoints that need the engine loop (epoch,
// telemetry, result): a hibernating session is woken first. Pure reads
// (handleGet, list) stay on lookup — they serve the cached view without
// paying an engine rebuild.
func (s *Server) lookupRunning(w http.ResponseWriter, r *http.Request) *session {
	sess := s.lookup(w, r)
	if sess == nil {
		return nil
	}
	if sess.isParked() {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		err := s.ensureRunning(ctx, sess)
		cancel()
		if err != nil {
			s.replyError(w, err)
			return nil
		}
	}
	return sess
}

// rehydrate rebuilds a non-resident session from its snapshot, if the
// configured store holds a usable one. On any failure it writes the HTTP
// error and returns nil; an unusable (corrupt, truncated, wrong-version)
// snapshot degrades to 404 — a cold start for the client — never a 500.
func (s *Server) rehydrate(w http.ResponseWriter, r *http.Request, id string) *session {
	notFound := func() { writeErr(w, http.StatusNotFound, fmt.Sprintf("no session %q", id)) }
	if s.cfg.Snapshots == nil {
		notFound()
		return nil
	}
	snap, err := s.cfg.Snapshots.Load(id)
	if err != nil {
		if errors.Is(err, ErrNoSnapshot) {
			if err != ErrNoSnapshot {
				// A file exists but is unusable: cold start, counted.
				s.met.snapshots.Inc(`op="corrupt"`)
				s.log.Warn("snapshot unusable, cold start", "id", id, "err", err)
			}
		} else {
			s.met.snapshots.Inc(`op="load_error"`)
			s.log.Warn("snapshot load failed, cold start", "id", id, "err", err)
		}
		notFound()
		return nil
	}
	if s.draining.Load() {
		// Same contract as create: a draining shard takes no new residents,
		// so the ring can move the session to a healthy one.
		s.met.rejected.Inc(`reason="draining"`)
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return nil
	}
	// A snapshot predating the tenant economy (or from an untenanted
	// shard) rehydrates into the default tenant, like an unlabeled create.
	if s.gov != nil {
		if snap.Spec.Tenant == "" {
			snap.Spec.Tenant = s.gov.defaultTenant
		}
		if err := s.gov.register(snap.Spec.Tenant); err != nil {
			s.log.Warn("tenant registration on rehydrate failed", "id", id,
				"tenant", snap.Spec.Tenant, "err", err)
		}
	}
	// The estimate travels with the snapshot: a rehydrated session is
	// priced by its measured history, not the cold prior.
	est := newCostEstimator(snap.Spec.guessCores())
	est.restore(snap.EpochCost)
	restoreCost := est.epochCost()
	if !s.tenantAdmit(w, snap.Spec.Tenant, restoreCost) {
		return nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	lease, err := s.disp.acquire(ctx, restoreCost)
	if err != nil {
		s.tenantRelease(snap.Spec.Tenant, restoreCost)
		s.replyError(w, err)
		return nil
	}
	eng, err := s.buildEngine(snap.Spec, snap, est)
	lease.release()
	s.tenantRelease(snap.Spec.Tenant, restoreCost)
	if err != nil {
		s.met.snapshots.Inc(`op="restore_error"`)
		s.log.Warn("snapshot restore failed, cold start", "id", id, "err", err)
		notFound()
		return nil
	}
	sess := s.newSession(id, snap.Spec, eng, est, snap.Epochs)
	evicted, addErr := s.store.add(sess)
	if addErr != nil {
		// A concurrent touch rehydrated the same id first; serve from the
		// now-resident copy and discard ours.
		sess.close()
		if resident := s.store.get(id); resident != nil {
			return resident
		}
		writeErr(w, http.StatusConflict, addErr.Error())
		return nil
	}
	if evicted != nil {
		s.retire(evicted, "capacity")
		s.log.Info("session evicted", "id", evicted.id, "reason", "capacity")
	}
	// Every snapshot that loads has had its integrity checksum verified.
	s.met.snapshots.Inc(`op="restore"`)
	s.met.snapshots.Inc(`op="verified"`)
	s.log.Info("session rehydrated", "id", id, "epochs", snap.Epochs, "saved_at", snap.SavedAt)
	return sess
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if sess := s.lookup(w, r); sess != nil {
		writeJSON(w, http.StatusOK, sess.View())
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
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
				return
			}
		}
		writeErr(w, http.StatusNotFound, fmt.Sprintf("no session %q", id))
		return
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
}

// epochBody is the optional POST body for /epoch.
type epochBody struct {
	Epochs int `json:"epochs,omitempty"`
}

func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupRunning(w, r)
	if sess == nil {
		return
	}
	var body epochBody
	if err := decodeBody(w, r, &body); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	n := body.Epochs
	if n == 0 {
		n = 1
	}
	if n < 1 || n > 1000 {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("epochs %d outside [1,1000]", n))
		return
	}
	// Per-session rate limit: a batched request spends one token per epoch,
	// so batching cannot sidestep the budget.
	if ok, retryAfter := sess.spend(n, time.Now()); !ok {
		s.met.rejected.Inc(`reason="ratelimit"`)
		writeRetryErr(w, retryAfter, fmt.Sprintf("session %q rate limited", sess.id))
		return
	}
	// A batched request spends n epochs' worth of cost units under one
	// lease — batching cannot sidestep weighted admission either. Under
	// tenancy the same cost charges the session's tenant sub-budget first:
	// one tenant saturating its grant gets 429s while its neighbours'
	// budgets stay untouched.
	cost := sess.epochCost(n)
	if !s.tenantAdmit(w, sess.spec.Tenant, cost) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	lease, err := s.disp.acquire(ctx, cost)
	if err != nil {
		s.tenantRelease(sess.spec.Tenant, cost)
		s.replyError(w, err)
		return
	}
	resp := sess.enqueue(ctx, &request{kind: reqEpoch, epochs: n})
	lease.release()
	s.tenantRelease(sess.spec.Tenant, cost)
	if resp.err != nil {
		s.replyError(w, resp.err)
		return
	}
	writeJSON(w, http.StatusOK, resp.view)
}

// handleEvict retires a resident session to its snapshot on demand: the
// session closes, its durable state lands in the snapshot store, and the
// next touch — on this shard or any other sharing the store — rehydrates it
// warm. This is the router's migration verb: a ring rebalance drains each
// moved session here on its old owner, then routes it to the new one.
// Unlike DELETE, the snapshot is the point, not collateral to remove. A
// non-resident id answers 404; the caller treats that as already migrated
// (an eviction or drain got there first).
func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess := s.store.remove(id)
	if sess == nil {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("no session %q", id))
		return
	}
	s.retire(sess, "migrate")
	s.log.Info("session evicted", "id", id, "reason", "migrate")
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupRunning(w, r)
	if sess == nil {
		return
	}
	var tele TelemetrySpec
	if err := decodeBody(w, r, &tele); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	resp := sess.enqueue(ctx, &request{kind: reqTelemetry, tele: tele})
	if resp.err != nil {
		s.replyEngineError(w, resp.err)
		return
	}
	writeJSON(w, http.StatusOK, resp.view)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupRunning(w, r)
	if sess == nil {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	resp := sess.enqueue(ctx, &request{kind: reqResult})
	if resp.err != nil {
		s.replyEngineError(w, resp.err)
		return
	}
	writeJSON(w, http.StatusOK, resp.result)
}

// healthzBody is the /healthz response.
type healthzBody struct {
	Status        string `json:"status"`
	Sessions      int    `json:"sessions"`
	UptimeSeconds int64  `json:"uptime_seconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := healthzBody{
		Status:        "ok",
		Sessions:      s.store.len(),
		UptimeSeconds: int64(time.Since(s.started).Seconds()),
	}
	code := http.StatusOK
	if s.draining.Load() {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.render(w, s.store.list(), s.disp, s.gov, s.draining.Load(),
		s.cfg.PerSessionMetrics, time.Since(s.started))
}
