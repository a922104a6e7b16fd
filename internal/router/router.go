// Package router is the sharded serving tier in front of N rebudgetd
// backends: a reverse proxy that places sessions on shards via a
// consistent-hash ring (stable session-id → shard mapping, virtual nodes
// for balance), probes each shard's /healthz, and fails open to the next
// ring position when a shard is down or draining. Paired with a shared
// snapshot store on the daemons (rebudgetd -snapshot-dir or -snapshot-url),
// a ring move is a warm migration: the receiving shard rehydrates the
// session from its snapshot and resumes with one warm-started equilibrium
// instead of a cold solve. Each shard's market equilibrium is independent
// (the mechanism is per-chip), so routing preserves ReBudget's numerics
// exactly — epoch allocations through the router are bit-identical to a
// direct daemon. See DESIGN.md, "Sharded serving" and "Elastic membership".
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/cluster"
	"rebudget/internal/expo"
)

// probeTimeout bounds one probe sweep, a joining shard's admission probe
// and one gossip push.
const probeTimeout = 2 * time.Second

// maxBody bounds a buffered request body: 1 MiB, the daemon's own limit.
const maxBody = 1 << 20

// Config sizes the router. Zero values select the documented defaults.
type Config struct {
	// Backends are the shard base URLs (e.g. "http://127.0.0.1:9001").
	// At least one is required.
	Backends []string
	// ProbeInterval is the /healthz polling period (default 1s).
	ProbeInterval time.Duration
	// ProxyTimeout is the per-proxied-request deadline (default 30s —
	// epoch batches on a loaded shard are allocation-grade work).
	ProxyTimeout time.Duration
	// Logger receives structured routing logs (default slog.Default()).
	Logger *slog.Logger
	// Transport overrides the proxy client's RoundTripper (default
	// http.DefaultTransport). This is the data-path seam chaos testing
	// plugs a fault-injecting transport into; the health prober keeps its
	// own client so active probes stay on a clean path — gray failures
	// (probe green, data path red) are then reproducible, which is the
	// scenario the circuit breakers exist for.
	Transport http.RoundTripper
	// Breaker sizes the per-shard circuit breakers.
	Breaker BreakerConfig

	// BackendAPIKey is the bearer token for shards running with -api-key.
	// The router sends it on its own shard-directed calls (migration
	// evicts) and injects it on proxied requests that carry no
	// Authorization of their own — so a deployment can keep keys on the
	// router→shard hop only, or pass client tokens through end to end.
	BackendAPIKey string

	// AdminToken, when set, mounts the authenticated membership API
	// (POST/DELETE /admin/shards, GET /admin/membership) and guards
	// /gossip. Requests must carry "Authorization: Bearer <token>".
	AdminToken string
	// GossipPeers are sibling router base URLs for probe-state gossip.
	// Non-empty starts the anti-entropy loop and mounts /gossip.
	GossipPeers []string
	// GossipInterval is the digest push period (default 1s).
	GossipInterval time.Duration
	// MigrationBudget bounds sessions moved per migration tick (default 8)
	// — the fleet-level CutSchedule step, so a membership change disturbs
	// serving no faster than a bounded budget cut disturbs the market.
	MigrationBudget int
	// MigrationInterval is the migrator tick period (default 200ms).
	MigrationInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProxyTimeout <= 0 {
		c.ProxyTimeout = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = time.Second
	}
	if c.MigrationBudget <= 0 {
		c.MigrationBudget = 8
	}
	if c.MigrationInterval <= 0 {
		c.MigrationInterval = 200 * time.Millisecond
	}
	return c
}

// Router is the sharded serving tier: it owns the hash ring, the health
// prober, the proxy loop and the membership state machine (admin API,
// budget-bounded session migrator, gossip loop). A static -backends list is
// a membership that never changes. Construct with New, mount Handler, Close
// when done.
type Router struct {
	cfg Config
	log *slog.Logger

	// mu guards the membership view: ring, backends, order, retired, pins.
	mu       sync.RWMutex
	ring     *cluster.Ring
	backends map[string]*backend // every reachable shard, active and retired
	order    []*backend          // active shards, configured order, for stable /metrics rendering
	retired  map[string]*backend // removed from the ring, kept reachable while their sessions drain
	pins     map[string]string   // session id → shard base, overriding the ring mid-migration
	moveSeq  uint64              // bumps once per completed migration (under mu)
	movedAt  map[string]uint64   // session id → moveSeq when its pin last cleared
	listings int                 // membership listings in flight; movedAt is prunable only at zero

	epoch atomic.Uint64 // membership epoch; starts at 1, bumped per change

	migMu    sync.Mutex
	migQueue []migration

	met         *rtrMetrics
	mux         *http.ServeMux
	proxyClient *http.Client
	probeClient *http.Client
	retry       *retryBudget

	started time.Time
	idSalt  string
	idSeq   atomic.Int64

	loopStop  chan struct{} // prober, migrator, gossip
	loopsDone sync.WaitGroup
}

// migration is one session move: evict id from shard `from`, then let the
// ring's new owner rehydrate it.
type migration struct {
	id, from string
	retries  int
}

// New builds a router over the configured backends, probes them once
// synchronously (so routing decisions are informed from the first
// request), and starts the background prober, the migrator and — with
// gossip peers configured — the gossip loop.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: at least one backend required")
	}
	rt := &Router{
		cfg:      cfg,
		log:      cfg.Logger,
		ring:     cluster.NewRing(0),
		backends: make(map[string]*backend),
		retired:  make(map[string]*backend),
		pins:     make(map[string]string),
		movedAt:  make(map[string]uint64),
		met:      &rtrMetrics{},
		mux:      http.NewServeMux(),
		proxyClient: &http.Client{
			// The per-request deadline comes from the proxied context.
			Timeout:   0,
			Transport: cfg.Transport,
		},
		probeClient: &http.Client{Timeout: probeTimeout},
		started:     time.Now(),
		// The salt keeps generated ids from colliding across router
		// restarts (each daemon's own "s-%06d" sequence has the same
		// problem scoped to one process; the router outlives many).
		idSalt:   strconv.FormatInt(time.Now().UnixNano(), 36),
		loopStop: make(chan struct{}),
	}
	rt.epoch.Store(1)
	rt.retry = newRetryBudget(retryRate, time.Now)
	for _, raw := range cfg.Backends {
		base := strings.TrimRight(raw, "/")
		if base == "" {
			return nil, errors.New("router: empty backend URL")
		}
		if _, dup := rt.backends[base]; dup {
			return nil, fmt.Errorf("router: duplicate backend %q", base)
		}
		b := &backend{base: base, br: newBreaker(breakerFailures, cfg.Breaker)}
		rt.backends[base] = b
		rt.order = append(rt.order, b)
		rt.ring.Add(base)
	}
	rt.routes()
	rt.probeAll(context.Background())
	rt.loopsDone.Add(2)
	go rt.prober()
	go rt.migrator()
	if len(cfg.GossipPeers) > 0 {
		rt.loopsDone.Add(1)
		go rt.gossiper()
	}
	return rt, nil
}

func (rt *Router) routes() {
	rt.mux.HandleFunc("POST /v1/sessions", rt.handleCreate)
	rt.mux.HandleFunc("GET /v1/sessions", rt.handleList)
	rt.mux.HandleFunc("/v1/sessions/{id}", rt.handleSession)
	rt.mux.HandleFunc("/v1/sessions/{id}/{verb}", rt.handleSession)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	// The membership-changing routes are mounted only for a router that was
	// given the means to authenticate or name its callers: one configured
	// with neither answers 404, so no unauthenticated caller can push it a
	// membership digest.
	if rt.cfg.AdminToken != "" {
		rt.mux.HandleFunc("POST /admin/shards", rt.handleAdminAdd)
		rt.mux.HandleFunc("DELETE /admin/shards", rt.handleAdminRemove)
		rt.mux.HandleFunc("GET /admin/membership", rt.handleMembership)
	}
	if rt.cfg.AdminToken != "" || len(rt.cfg.GossipPeers) > 0 {
		rt.mux.HandleFunc("POST /gossip", rt.handleGossip)
	}
}

// Handler returns the router's HTTP handler (logging + metrics wrapped).
func (rt *Router) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// The epoch header is how a caller learns membership moved between
		// two of its requests.
		w.Header().Set(api.EpochHeader, strconv.FormatUint(rt.epoch.Load(), 10))
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		rt.mux.ServeHTTP(rec, r)
		dur := time.Since(start)
		route := expo.RouteLabel(r.URL.Path)
		rt.met.observe(route, rec.code, dur)
		rt.log.Info("routed",
			"method", r.Method, "route", route, "path", r.URL.Path,
			"code", rec.code, "dur_ms", float64(dur.Microseconds())/1000)
	})
}

// Close stops the health prober, the migrator and the gossip loop. The HTTP
// listener (owned by the caller) should be shut down first; the backends
// keep running — they are not the router's to stop.
func (rt *Router) Close() {
	close(rt.loopStop)
	rt.loopsDone.Wait()
}

// Epoch reports the current membership epoch (1 until the first change).
func (rt *Router) Epoch() uint64 { return rt.epoch.Load() }

// Members reports the active ring membership, sorted.
func (rt *Router) Members() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring.Members()
}

// activeBackends snapshots the active (in-ring) shard list in configured
// order; safe to iterate without holding mu.
func (rt *Router) activeBackends() []*backend {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]*backend, len(rt.order))
	copy(out, rt.order)
	return out
}

// allBackends snapshots every reachable shard — active and retired — for
// the prober: a retired shard must stay watched while its sessions drain.
func (rt *Router) allBackends() []*backend {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]*backend, 0, len(rt.backends))
	for _, b := range rt.backends {
		out = append(out, b)
	}
	return out
}

// --- placement + proxy ---

// sequenceFor is the failover order for a session id: its migration pin
// first when one exists (the session's state is mid-move and must keep
// hitting its current owner), then the ring sequence.
func (rt *Router) sequenceFor(id string) []*backend {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	names := rt.ring.Sequence(id)
	seq := make([]*backend, 0, len(names)+1)
	if pin, ok := rt.pins[id]; ok {
		if b, ok := rt.backends[pin]; ok {
			seq = append(seq, b)
		}
	}
	for _, n := range names {
		b := rt.backends[n]
		if len(seq) > 0 && b == seq[0] {
			continue
		}
		seq = append(seq, b)
	}
	return seq
}

// routeFor is the retry target after a swallowed 410/404 revealed a
// session mid-move: the pin while one is still set, the ring primary
// once it clears. Retrying a *pinned* session on the ring primary would
// fork it — the primary restores the snapshot and serves while later
// pinned requests resurrect the old owner's copy, and whichever stepped
// further loses when the pin clears. Honoring the pin keeps exactly one
// shard authoritative at every instant; the migrator's second evict
// still closes the resurrect window it leaves.
func (rt *Router) routeFor(id string) *backend {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if pin, ok := rt.pins[id]; ok {
		if b, ok := rt.backends[pin]; ok {
			return b
		}
	}
	p := rt.ring.Primary(id)
	if p == "" {
		return nil
	}
	return rt.backends[p]
}

// errSessionMoved reports a swallowed 410: the shard answered "gone", which
// mid-migration means the session was just evicted to its snapshot and the
// ring's current primary can rehydrate it.
var errSessionMoved = errors.New("session gone mid-migration")

// errSessionSettling reports a swallowed 404 on a moved-session retry: the
// old owner said "gone", the new primary says "never heard of it" — the
// eviction's snapshot write is still in flight (the daemon closes the
// session before its save completes), so the snapshot will appear within
// one write's latency.
var errSessionSettling = errors.New("session snapshot still settling")

// settleRetries and settleWait bound how long a moved-session retry waits
// out that eviction/save race before letting the 404 stand.
const (
	settleRetries = 4
	settleWait    = 15 * time.Millisecond
)

// proxy walks a session's ring sequence — healthy shards with a willing
// breaker first in ring order, then (fail-open) the shards that were
// skipped, in case probe or breaker state is stale — forwarding the
// buffered request to the first shard that answers at the transport
// level. HTTP statuses, including the daemon's 429/Retry-After
// backpressure, pass through untouched: the shard answered, and its
// answer stands. A transport failure marks the shard unhealthy on the
// spot and feeds its circuit breaker (passive detection), then moves on.
//
// Failover is budgeted two ways: each request gets retriesPerRequest attempts
// beyond its first, and every retry also spends a token from the
// router-wide bucket — an outage can't turn N incoming requests into
// N×ring-length attempts against shards that are already browning out.
//
// One 410 per request is swallowed and retried against the ring's current
// primary: a session evicted for migration between this request's routing
// decision and its arrival answers "gone" on the old owner, and the retry is
// what turns that race into one warm rehydrate instead of a client-visible
// error.
//
// The returned flag reports whether body is safe to recycle: after a
// transport-level failure the http.Transport's write goroutine may still
// be reading the body briefly, so callers must not return a pooled buffer
// to its pool on that path.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, id string, body []byte) (bodySafe bool) {
	bodySafe = true
	seq := rt.sequenceFor(id)
	if len(seq) == 0 {
		rt.met.noShard.Add(1)
		writeErr(w, http.StatusServiceUnavailable, "no shards configured")
		return bodySafe
	}
	isEpoch := strings.HasSuffix(r.URL.Path, "/epoch")
	attempts := 0
	outOfBudget := false
	movedRetried := false
	settled := 0
	// attempt forwards to b; every attempt after the first is a retry and
	// must be paid for. served means the response was written; stop means
	// the retry budget is gone and the walk must end.
	var attempt func(b *backend, idx int) (served, stop bool)
	attempt = func(b *backend, idx int) (served, stop bool) {
		if attempts > 0 {
			if attempts > retriesPerRequest {
				outOfBudget = true
				return false, true
			}
			if !rt.retry.take() {
				rt.met.retryExhausted.Add(1)
				outOfBudget = true
				return false, true
			}
			rt.met.retries.Add(1)
		}
		attempts++
		swallowGone := !movedRetried
		// A 404 is swallowed (and waited out) only while this request is
		// entangled with a live migration: it already followed a 410 hand-
		// off, it already waited once, or the session is pinned — meaning a
		// move is in flight and the pin may have routed us to an owner that
		// just evicted it. Genuine unknown-session 404s stay instant.
		swallowMiss := settled < settleRetries &&
			(movedRetried || settled > 0 || rt.isPinned(id))
		if _, err := rt.forward(w, r, b, id, body, swallowGone, swallowMiss); err != nil {
			if errors.Is(err, errSessionMoved) {
				// The shard answered; nothing was written. Re-route once to
				// the ring's current primary — free of charge: this is a
				// migration hand-off, not a failure.
				movedRetried = true
				rt.met.migrationRetries.Add(1)
				rt.log.Info("session moved mid-request, re-routing", "id", id, "from", b.base)
				np := rt.routeFor(id)
				if np == nil {
					np = b
				}
				attempts-- // the re-route replaces this attempt
				return attempt(np, idx)
			}
			if errors.Is(err, errSessionSettling) {
				// "Gone" on the old owner but not yet restorable on the new:
				// the eviction's snapshot write is mid-flight. Wait one write
				// latency and ask again — bounded, then the 404 stands.
				settled++
				rt.log.Info("moved session not restorable yet, waiting out the snapshot write",
					"id", id, "try", settled)
				select {
				case <-r.Context().Done():
					return false, true
				case <-time.After(settleWait):
				}
				np := rt.routeFor(id)
				if np == nil {
					np = b
				}
				attempts-- // still the same migration hand-off
				return attempt(np, idx)
			}
			bodySafe = false
			b.br.onFailure()
			b.setHealthy(false)
			rt.met.failovers.Add(1)
			rt.log.Warn("shard unreachable, failing over", "shard", b.base, "err", err)
			return false, false
		}
		b.br.onSuccess()
		if idx > 0 {
			if isEpoch {
				rt.met.reroutedEpochs.Add(1)
			}
			rt.log.Info("request rerouted", "id", id, "shard", b.base, "ring_position", idx)
		}
		return true, false
	}
	var skipped []int
	for i, b := range seq {
		if !b.healthy.Load() {
			rt.met.failovers.Add(1)
			skipped = append(skipped, i)
			continue
		}
		if !b.br.allow() {
			rt.met.breakerRejects.Add(1)
			skipped = append(skipped, i)
			continue
		}
		served, stop := attempt(b, i)
		if served {
			return
		}
		if stop {
			// The budget stopped the attempt after allow() may have
			// claimed a half-open trial; give the slot back.
			b.br.unclaim()
			break
		}
	}
	// Fail-open last resort: probe state and breakers can both be stale
	// (a shard back up before its next probe, a breaker still open after
	// a partition healed). These attempts bypass the breaker gate — their
	// outcomes still feed it — and stay bounded by the retry budget.
	if !outOfBudget {
		for _, i := range skipped {
			served, stop := attempt(seq[i], i)
			if served {
				return
			}
			if stop {
				break
			}
		}
	}
	rt.met.noShard.Add(1)
	w.Header().Set("Retry-After", "1")
	msg := "no healthy shard"
	if outOfBudget {
		msg = "no healthy shard (retry budget exhausted)"
	}
	writeErr(w, http.StatusServiceUnavailable, msg)
	return bodySafe
}

// forward sends one buffered request to a shard and streams its response
// back. An error means nothing was written to w — either the shard never
// answered (transport failure; safe to retry on the next ring position) or
// it answered a status the caller asked to swallow: 410 with swallowGone
// set (errSessionMoved; retry on the ring's current primary) or 404 with
// swallowMiss set (errSessionSettling; the migration's snapshot write is
// still landing, retry after a short wait). A shard that breaks off after
// its headers were relayed aborts the handler instead of returning.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, b *backend, id string, body []byte, swallowGone, swallowMiss bool) (int, error) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.ProxyTimeout)
	defer cancel()
	url := b.base + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	// The tenant label rides the hop too: a spec without one is labelled by
	// the shard from this header, so tenancy works through the router. The
	// client's bearer token is forwarded for keyed shards; when the client
	// sent none, the router's own backend key (if any) fills the hop.
	for _, h := range []string{"Content-Type", api.TenantHeader, "Authorization"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	if req.Header.Get("Authorization") == "" && rt.cfg.BackendAPIKey != "" {
		req.Header.Set("Authorization", "Bearer "+rt.cfg.BackendAPIKey)
	}
	resp, err := rt.proxyClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if swallowGone && resp.StatusCode == http.StatusGone {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, errSessionMoved
	}
	if swallowMiss && resp.StatusCode == http.StatusNotFound {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, errSessionSettling
	}
	// Retry-After must survive the hop: the router propagates the shard's
	// backpressure contract instead of inventing its own.
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if err := relay(w, resp.Body); err != nil && r.Context().Err() == nil {
		// The status is on the wire, so there is no failing over and no
		// error body left to send. Break the connection: ending the chunked
		// body cleanly would hand the client well-framed half JSON under a
		// 200. (A read that failed because the client itself left is not
		// the shard's doing and needs no abort.)
		b.br.onFailure()
		rt.met.relayAborted.Add(1)
		rt.log.Warn("shard broke off mid-body, aborting the response",
			"shard", b.base, "id", id, "code", resp.StatusCode, "err", err)
		panic(http.ErrAbortHandler)
	}
	return resp.StatusCode, nil
}

// --- handlers ---

// handleCreate places a new session: the spec's id (generated here when
// absent — placement needs a key before the daemon ever sees the spec) is
// hashed onto the ring and the create is forwarded to the owning shard.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	raw, err := readBody(w, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	var spec api.SessionSpec
	if raw.Len() > 0 {
		dec := json.NewDecoder(bytes.NewReader(raw.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			putBodyBuf(raw)
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	putBodyBuf(raw) // decoded (or empty): the raw bytes are done
	if spec.ID == "" {
		spec.ID = fmt.Sprintf("r%s-%06d", rt.idSalt, rt.idSeq.Add(1))
	}
	body, err := json.Marshal(spec)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	rt.proxy(rec, r, spec.ID, body)
	if rec.code == http.StatusCreated {
		rt.met.sessionsPlaced.Add(1)
	}
}

// handleSession proxies every per-session route by its {id}.
func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == "" {
		writeErr(w, http.StatusBadRequest, "missing session id")
		return
	}
	buf, err := readBody(w, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if rt.proxy(w, r, id, buf.Bytes()) {
		putBodyBuf(buf)
	}
}

// handleList fans a list out to every healthy shard and merges the views,
// most recently used first like a single daemon's list (ties by id).
// Shards that fail mid-list are skipped (and marked) rather than failing
// the whole listing — a partial inventory beats none during an outage.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.ProxyTimeout)
	defer cancel()
	order := rt.activeBackends()
	type shardList struct {
		views []api.SessionView
		err   error
	}
	results := make([]shardList, len(order))
	var wg sync.WaitGroup
	for i, b := range order {
		if !b.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/v1/sessions", nil)
			if err != nil {
				results[i].err = err
				return
			}
			resp, err := rt.proxyClient.Do(req)
			if err != nil {
				b.setHealthy(false)
				results[i].err = err
				return
			}
			defer resp.Body.Close()
			var out api.SessionList
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				results[i].err = err
				return
			}
			results[i].views = out.Sessions
		}(i, b)
	}
	wg.Wait()
	merged := api.SessionList{Sessions: []api.SessionView{}}
	for _, res := range results {
		merged.Sessions = append(merged.Sessions, res.views...)
	}
	slices.SortFunc(merged.Sessions, func(a, b api.SessionView) int {
		if c := b.LastUsed.Compare(a.LastUsed); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
	writeJSON(w, http.StatusOK, merged)
}

// ShardHealth is one backend's state in the router's /healthz body.
type ShardHealth struct {
	Shard    string `json:"shard"`
	Healthy  bool   `json:"healthy"`
	Sessions int64  `json:"sessions"`
}

// HealthzBody is the router's /healthz response.
type HealthzBody struct {
	Status          string        `json:"status"`
	Shards          []ShardHealth `json:"shards"`
	UptimeSeconds   int64         `json:"uptime_seconds"`
	MembershipEpoch uint64        `json:"membership_epoch"`
}

// handleHealthz reports the router healthy while at least one shard is:
// a degraded tier still serves (rerouted) traffic.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := HealthzBody{
		UptimeSeconds:   int64(time.Since(rt.started).Seconds()),
		MembershipEpoch: rt.epoch.Load(),
	}
	order := rt.activeBackends()
	healthyN := 0
	for _, b := range order {
		h := b.healthy.Load()
		if h {
			healthyN++
		}
		body.Shards = append(body.Shards, ShardHealth{
			Shard: b.base, Healthy: h, Sessions: b.sessions.Load(),
		})
	}
	code := http.StatusOK
	switch {
	case healthyN == len(order):
		body.Status = "ok"
	case healthyN > 0:
		body.Status = "degraded"
	default:
		body.Status = "down"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.met.render(w, rt.activeBackends(), time.Since(rt.started),
		rt.epoch.Load(), rt.pendingMigrations())
}

// --- HTTP plumbing (mirrors the daemon's) ---

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = encodeJSON(w, v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, api.Error{Error: msg})
}
