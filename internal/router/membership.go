package router

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/cluster"
)

func drainBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// Elastic membership: live shard add/remove under traffic, with snapshots
// as the migration vehicle and the move rate bounded by the fleet-level
// CutSchedule. The protocol per change is pin → flip → reconcile → drain:
//
//  1. List resident sessions and compute the moved set — the keys whose
//     ring primary differs between the old and new membership
//     (cluster.MovedKeys; deterministic, so every replica agrees).
//  2. Pin each moved session to its current owner. Pins override the ring
//     in sequenceFor, so the flip cannot strand a session that has no
//     snapshot yet.
//  3. Flip the ring and bump the membership epoch.
//  4. Reconcile: list again and pin anything that moved in the window
//     between the first list and the flip.
//  5. Drain: the migrator evicts pinned sessions at MigrationBudget per
//     tick — a steady, bounded drain rate, like §4.2's bounded budget
//     reassignment applied to the serving fleet. Each evict writes the
//     session's snapshot and frees it; clearing the pin then routes its
//     next request to the new owner, which rehydrates warm.
//
// A removed shard leaves the ring immediately (step 3) but stays reachable
// in the retired set until its last pinned session has drained — the
// evict verb needs somewhere to send the state.

// ErrNotMember reports a remove of a shard the ring doesn't hold.
var ErrNotMember = errors.New("router: shard is not a member")

// AddShard grows the ring by one shard under traffic, returning the number
// of sessions scheduled to migrate to it. The shard must answer /healthz
// before it is admitted — growing onto a dead shard is a typo, not a plan.
func (rt *Router) AddShard(ctx context.Context, raw string) (moved int, err error) {
	base := strings.TrimRight(raw, "/")
	if base == "" {
		return 0, errors.New("router: empty shard URL")
	}
	rt.mu.RLock()
	_, active := rt.backends[base]
	_, draining := rt.retired[base]
	oldMembers := rt.ring.Members()
	rt.mu.RUnlock()
	if draining {
		return 0, fmt.Errorf("router: shard %q is still draining from a remove", base)
	}
	if active {
		return 0, fmt.Errorf("router: shard %q is already a member", base)
	}
	b := &backend{base: base, br: newBreaker(breakerFailures, rt.cfg.Breaker)}
	probeCtx, cancel := context.WithTimeout(ctx, probeTimeout)
	ok := b.probe(probeCtx, rt.probeClient)
	cancel()
	if !ok {
		return 0, fmt.Errorf("router: shard %q failed its admission probe", base)
	}

	// Pin the moved set before the flip: between the pin and the evict,
	// those sessions keep hitting the owner that actually holds them. The
	// listing races any still-draining previous change, so sessions that
	// complete a move after seqStart are dropped from this plan — their
	// listed location is stale.
	seqStart := rt.beginListing()
	defer rt.endListing()
	residents := rt.listResidents(ctx)
	ids := make([]string, 0, len(residents))
	for id := range residents {
		ids = append(ids, id)
	}
	newMembers := append(append([]string{}, oldMembers...), base)
	movedKeys := cluster.MovedKeys(oldMembers, newMembers, 0, ids)

	rt.mu.Lock()
	if _, dup := rt.backends[base]; dup {
		rt.mu.Unlock()
		return 0, fmt.Errorf("router: shard %q is already a member", base)
	}
	var plan []migration
	for _, id := range movedKeys {
		from, resident := residents[id]
		if !resident || rt.movedSince(id, seqStart) {
			continue
		}
		rt.pins[id] = from
		plan = append(plan, migration{id: id, from: from})
	}
	rt.backends[base] = b
	rt.order = append(rt.order, b)
	rt.ring.Add(base)
	epoch := rt.epoch.Add(1)
	rt.mu.Unlock()

	rt.enqueueMigrations(plan)
	rt.reconcile(ctx)
	rt.met.membershipChanges.Add(1)
	rt.log.Info("shard added", "shard", base, "epoch", epoch, "migrating", len(plan))
	return len(plan), nil
}

// RemoveShard shrinks the ring by one shard under traffic, returning the
// number of resident sessions scheduled to migrate off it. The shard
// leaves the ring at once but keeps serving its pinned sessions from the
// retired set until the migrator has drained them.
func (rt *Router) RemoveShard(ctx context.Context, raw string) (moved int, err error) {
	base := strings.TrimRight(raw, "/")
	rt.mu.RLock()
	b, active := rt.backends[base]
	_, draining := rt.retired[base]
	memberCount := rt.ring.Len()
	rt.mu.RUnlock()
	if draining {
		return 0, fmt.Errorf("router: shard %q is already draining", base)
	}
	if !active {
		return 0, fmt.Errorf("%w: %q", ErrNotMember, base)
	}
	if memberCount <= 1 {
		return 0, errors.New("router: refusing to remove the last shard")
	}

	seqStart := rt.beginListing()
	defer rt.endListing()
	residents := rt.listShardResidents(ctx, b)

	rt.mu.Lock()
	if !rt.ring.Has(base) {
		rt.mu.Unlock()
		return 0, fmt.Errorf("%w: %q", ErrNotMember, base)
	}
	var plan []migration
	for _, id := range residents {
		if rt.movedSince(id, seqStart) {
			continue // moved off this shard while we were listing it
		}
		rt.pins[id] = base
		plan = append(plan, migration{id: id, from: base})
	}
	rt.ring.Remove(base)
	rt.retired[base] = b
	kept := rt.order[:0]
	for _, ob := range rt.order {
		if ob != b {
			kept = append(kept, ob)
		}
	}
	rt.order = kept
	epoch := rt.epoch.Add(1)
	rt.mu.Unlock()

	rt.enqueueMigrations(plan)
	rt.reconcile(ctx)
	rt.met.membershipChanges.Add(1)
	rt.log.Info("shard removed", "shard", base, "epoch", epoch, "migrating", len(plan))
	return len(plan), nil
}

// SetBackends reconciles the ring against a full desired shard list — the
// SIGHUP / config-reload path for deployments without the admin API. Adds
// and removes are the same pin/flip/drain machinery; unchanged shards are
// untouched. The first error aborts the remaining steps (the next reload
// retries them).
func (rt *Router) SetBackends(ctx context.Context, desired []string) error {
	want := make(map[string]bool, len(desired))
	var wantList []string
	for _, raw := range desired {
		base := strings.TrimRight(raw, "/")
		if base == "" {
			return errors.New("router: empty backend URL in reload")
		}
		if !want[base] {
			want[base] = true
			wantList = append(wantList, base)
		}
	}
	if len(wantList) == 0 {
		return errors.New("router: reload with no backends refused")
	}
	current := rt.Members()
	for _, base := range wantList {
		has := false
		for _, cur := range current {
			if cur == base {
				has = true
				break
			}
		}
		if !has {
			if _, err := rt.AddShard(ctx, base); err != nil {
				return err
			}
		}
	}
	for _, cur := range current {
		if !want[cur] {
			if _, err := rt.RemoveShard(ctx, cur); err != nil {
				return err
			}
		}
	}
	return nil
}

// listResidents maps every resident session id to the shard holding it,
// by asking each active shard directly (the router's own /v1/sessions
// merge loses the shard attribution).
func (rt *Router) listResidents(ctx context.Context) map[string]string {
	out := make(map[string]string)
	for _, b := range rt.activeBackends() {
		if !b.healthy.Load() {
			continue
		}
		for _, id := range rt.listShardResidents(ctx, b) {
			out[id] = b.base
		}
	}
	return out
}

// listShardResidents lists one shard's resident session ids.
func (rt *Router) listShardResidents(ctx context.Context, b *backend) []string {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ProxyTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/v1/sessions", nil)
	if err != nil {
		return nil
	}
	resp, err := rt.proxyClient.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var out api.SessionList
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&out) != nil {
		return nil
	}
	ids := make([]string, 0, len(out.Sessions))
	for _, s := range out.Sessions {
		ids = append(ids, s.ID)
	}
	sort.Strings(ids)
	return ids
}

// reconcile closes the list/flip race: sessions created (or missed)
// between the migration plan's listing and the ring flip may now be
// resident on a shard that is no longer their primary. Pin and queue
// them; idempotent for sessions already pinned, and sessions whose move
// completed after this listing began are skipped — the listing's claim
// about where they live is stale, and re-pinning them to their old owner
// would fork the session (see clearPin).
func (rt *Router) reconcile(ctx context.Context) {
	seqStart := rt.beginListing()
	defer rt.endListing()
	residents := rt.listResidents(ctx)
	var plan []migration
	rt.mu.Lock()
	for id, shard := range residents {
		if _, pinned := rt.pins[id]; pinned {
			continue
		}
		if rt.movedSince(id, seqStart) {
			continue
		}
		if rt.ring.Primary(id) != shard {
			rt.pins[id] = shard
			plan = append(plan, migration{id: id, from: shard})
		}
	}
	rt.mu.Unlock()
	rt.enqueueMigrations(plan)
}

func (rt *Router) enqueueMigrations(plan []migration) {
	if len(plan) == 0 {
		return
	}
	rt.migMu.Lock()
	rt.migQueue = append(rt.migQueue, plan...)
	rt.migMu.Unlock()
}

// pendingMigrations reports session moves queued or pinned mid-move (the
// two sets overlap until a move completes, so the larger stands for both).
func (rt *Router) pendingMigrations() int {
	rt.migMu.Lock()
	queued := len(rt.migQueue)
	rt.migMu.Unlock()
	rt.mu.RLock()
	pinned := len(rt.pins)
	rt.mu.RUnlock()
	return max(queued, pinned)
}

// migrator is the background drain loop: every tick it pops up to
// MigrationBudget sessions from the queue and moves each one — a membership
// change drains at a steady, bounded rate instead of a thundering
// re-shuffle.
func (rt *Router) migrator() {
	defer rt.loopsDone.Done()
	t := time.NewTicker(rt.cfg.MigrationInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.loopStop:
			return
		case <-t.C:
			rt.migrateTick(rt.cfg.MigrationBudget)
			rt.finalizeRetired()
		}
	}
}

// migrateTick moves up to budget sessions.
func (rt *Router) migrateTick(budget int) {
	for n := 0; n < budget; n++ {
		rt.migMu.Lock()
		if len(rt.migQueue) == 0 {
			rt.migMu.Unlock()
			return
		}
		m := rt.migQueue[0]
		rt.migQueue = rt.migQueue[1:]
		rt.migMu.Unlock()
		rt.migrateOne(m)
	}
}

// migrateOne executes one move: evict the session on its current owner
// (retire-to-snapshot), clear its pin so the ring routes to the new
// owner, then evict once more in case a pinned in-flight request
// resurrected it on the old owner between the two steps. A transport
// failure requeues the move (bounded retries) — the owner may be mid-
// restart and the session is still pinned, so nothing is lost by waiting.
func (rt *Router) migrateOne(m migration) {
	if ok, retry := rt.evict(m.from, m.id); !ok {
		if retry && m.retries < 5 {
			m.retries++
			rt.enqueueMigrations([]migration{m})
		} else {
			// The owner is gone for good (or the session already was):
			// unpin and let the ring's owner rehydrate from whatever
			// snapshot exists — the same contract as a shard death.
			rt.clearPin(m.id)
			rt.met.migrationDropped.Add(1)
		}
		return
	}
	rt.clearPin(m.id)
	rt.evict(m.from, m.id) // close the resurrect window; 404 is the norm
	rt.met.migrations.Add(1)
	rt.log.Info("session migrated", "id", m.id, "from", m.from)
}

// isPinned reports whether id is mid-migration: pinned to its old owner
// between the ring flip and the drain of its move. Requests for a pinned
// session may race the eviction itself (owner already retired it, pin not
// yet cleared), so the proxy treats their 404s as settling, not missing.
func (rt *Router) isPinned(id string) bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	_, ok := rt.pins[id]
	return ok
}

// clearPin releases a session from the migrator and stamps the move: any
// membership change whose resident listing began before this instant must
// not trust what that listing said about id. Without the stamp, a
// reconcile racing the drain re-pins a just-moved session to its OLD
// owner off the stale list — traffic then resurrects the old snapshot
// there while the new owner's live copy goes stale, and whichever copy
// stepped further loses when the bogus pin drains (an observed epoch
// regression, not a hypothetical).
func (rt *Router) clearPin(id string) {
	rt.mu.Lock()
	delete(rt.pins, id)
	rt.moveSeq++
	rt.movedAt[id] = rt.moveSeq
	rt.mu.Unlock()
}

// beginListing opens a resident-listing window: it snapshots the move
// counter for movedSince checks and holds the movedAt map unprunable
// until the matching endListing. Callers defer endListing immediately.
func (rt *Router) beginListing() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.listings++
	return rt.moveSeq
}

func (rt *Router) endListing() {
	rt.mu.Lock()
	rt.listings--
	rt.mu.Unlock()
}

// movedSince reports whether id's pin cleared after the given snapshot.
// Callers hold rt.mu.
func (rt *Router) movedSince(id string, since uint64) bool {
	at, ok := rt.movedAt[id]
	return ok && at > since
}

// evict asks a shard to retire a session to its snapshot. ok means the
// session is no longer resident there (evicted now, or already gone);
// retry means the shard didn't answer and the move should be retried.
func (rt *Router) evict(base, id string) (ok, retry bool) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProxyTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/v1/sessions/"+id+"/evict", nil)
	if err != nil {
		return false, false
	}
	// The migrator speaks for itself, not for a client — keyed shards get
	// the router's own backend token.
	if rt.cfg.BackendAPIKey != "" {
		req.Header.Set("Authorization", "Bearer "+rt.cfg.BackendAPIKey)
	}
	resp, err := rt.proxyClient.Do(req)
	if err != nil {
		return false, true
	}
	drainBody(resp)
	switch resp.StatusCode {
	case http.StatusNoContent:
		return true, false
	case http.StatusNotFound, http.StatusGone:
		// Not resident (idled out to its snapshot already, or deleted).
		return true, false
	default:
		return false, true
	}
}

// finalizeRetired drops retired shards whose last pinned session has
// drained: nothing routes to them anymore, so they leave the backend set
// entirely (probes stop, metrics forget them).
func (rt *Router) finalizeRetired() {
	rt.migMu.Lock()
	queued := len(rt.migQueue)
	rt.migMu.Unlock()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	// Quiescent — no pins, nothing queued — means no listing can be in a
	// race with a drain, so the move stamps have served their purpose.
	if queued == 0 && rt.listings == 0 && len(rt.pins) == 0 && len(rt.movedAt) > 0 {
		rt.movedAt = make(map[string]uint64)
	}
	if len(rt.retired) == 0 {
		return
	}
	stillPinned := make(map[string]bool, len(rt.retired))
	for _, shard := range rt.pins {
		stillPinned[shard] = true
	}
	for base := range rt.retired {
		if !stillPinned[base] {
			delete(rt.retired, base)
			delete(rt.backends, base)
			rt.log.Info("retired shard released", "shard", base)
		}
	}
}

// --- admin API ---

// authorized checks the bearer token in constant time.
func (rt *Router) authorized(r *http.Request) bool {
	if rt.cfg.AdminToken == "" {
		return false
	}
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if !strings.HasPrefix(auth, prefix) {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(auth[len(prefix):]), []byte(rt.cfg.AdminToken)) == 1
}

// adminShardArg extracts the shard URL from body {"shard": "..."} or the
// ?shard= query parameter.
func adminShardArg(r *http.Request) (string, error) {
	if q := r.URL.Query().Get("shard"); q != "" {
		return q, nil
	}
	var body struct {
		Shard string `json:"shard"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBody))
	if err := dec.Decode(&body); err != nil {
		return "", fmt.Errorf("shard argument required (body {\"shard\": ...} or ?shard=): %v", err)
	}
	return body.Shard, nil
}

// MembershipBody is the admin API's view of the ring, also returned by
// every mutation so one call shows its effect.
type MembershipBody struct {
	Epoch     uint64   `json:"epoch"`
	Members   []string `json:"members"`
	Draining  []string `json:"draining,omitempty"`
	Migrating int      `json:"migrating"`
}

func (rt *Router) membershipBody() MembershipBody {
	rt.mu.RLock()
	members := rt.ring.Members()
	var draining []string
	for base := range rt.retired {
		draining = append(draining, base)
	}
	rt.mu.RUnlock()
	sort.Strings(draining)
	return MembershipBody{
		Epoch:     rt.epoch.Load(),
		Members:   members,
		Draining:  draining,
		Migrating: rt.pendingMigrations(),
	}
}

func (rt *Router) handleAdminAdd(w http.ResponseWriter, r *http.Request) {
	if !rt.authorized(r) {
		writeErr(w, http.StatusUnauthorized, "admin token required")
		return
	}
	shard, err := adminShardArg(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	moved, err := rt.AddShard(r.Context(), shard)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	body := rt.membershipBody()
	if moved > body.Migrating {
		body.Migrating = moved
	}
	writeJSON(w, http.StatusOK, body)
}

func (rt *Router) handleAdminRemove(w http.ResponseWriter, r *http.Request) {
	if !rt.authorized(r) {
		writeErr(w, http.StatusUnauthorized, "admin token required")
		return
	}
	shard, err := adminShardArg(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	moved, err := rt.RemoveShard(r.Context(), shard)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrNotMember) {
			code = http.StatusNotFound
		}
		writeErr(w, code, err.Error())
		return
	}
	body := rt.membershipBody()
	if moved > body.Migrating {
		body.Migrating = moved
	}
	writeJSON(w, http.StatusOK, body)
}

func (rt *Router) handleMembership(w http.ResponseWriter, r *http.Request) {
	if !rt.authorized(r) {
		writeErr(w, http.StatusUnauthorized, "admin token required")
		return
	}
	writeJSON(w, http.StatusOK, rt.membershipBody())
}
