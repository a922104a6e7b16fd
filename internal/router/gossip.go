package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/cluster"
)

// Probe-state gossip between router replicas. Each replica periodically
// pushes its digest — membership epoch, member list, per-shard health
// observations — to every configured peer and merges the peer's digest
// out of the response (push-pull, so one exchange converges both sides).
// With every replica pushing to every peer each interval, a first-hand
// observation reaches a full mesh in one round and any connected peer
// graph in diameter-many rounds; internal/cluster pins the bound.
//
// Authority is sequence-numbered, not clocked: only first-hand flips bump
// a shard's observation seq (backend.setHealthy), so a replica that just
// probed a shard outranks every peer still relaying the old state — and
// stale gossip can never shout down a fresh local probe.

// digest snapshots this router's gossip view.
func (rt *Router) digest() cluster.Digest {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	d := cluster.Digest{
		Epoch:   rt.epoch.Load(),
		Members: rt.ring.Members(),
	}
	for _, b := range rt.order {
		healthy, seq := b.observation()
		d.Shards = append(d.Shards, cluster.ShardObservation{
			Shard: b.base, Healthy: healthy, Seq: seq,
		})
	}
	return d
}

// mergeDigest folds a peer's digest into local state: membership first
// (a higher epoch's member list is adopted wholesale — epochs only move
// through deliberate changes, so higher is simply newer), then per-shard
// observations under the cluster merge rule. Reports how many
// observations were adopted.
func (rt *Router) mergeDigest(d cluster.Digest) (adopted int) {
	if len(d.Members) > 0 && d.Epoch > rt.epoch.Load() {
		rt.adoptMembership(d.Members, d.Epoch)
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	for _, obs := range d.Shards {
		b, known := rt.backends[obs.Shard]
		if !known {
			// Not in our membership (yet): epoch-gated, re-gossiped later.
			continue
		}
		_, localSeq := b.observation()
		local := cluster.ShardObservation{Shard: obs.Shard, Healthy: b.healthy.Load(), Seq: localSeq}
		if cluster.Supersedes(obs, local) {
			b.adoptObservation(obs.Healthy, obs.Seq)
			adopted++
			rt.log.Info("gossip adopted shard observation",
				"shard", obs.Shard, "healthy", obs.Healthy, "seq", obs.Seq)
		}
	}
	rt.met.gossipAdopted.Add(int64(adopted))
	return adopted
}

// adoptMembership replaces the active member set with a peer's newer view.
// The adopting replica performs no migration — the replica that executed
// the membership change drives the drain; this one only needs to route
// consistently with the new ring. Backends it didn't know are created
// (and probed on the next sweep); backends no longer in the membership
// are dropped unless they still hold pinned sessions.
func (rt *Router) adoptMembership(members []string, epoch uint64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if epoch <= rt.epoch.Load() { // re-check under the write lock
		return
	}
	want := make(map[string]bool, len(members))
	for _, m := range members {
		want[m] = true
	}
	// Add the new members.
	for _, m := range members {
		if _, ok := rt.backends[m]; !ok {
			b := rt.newBackend(m)
			rt.backends[m] = b
			rt.order = append(rt.order, b)
		}
		if !rt.ring.Has(m) {
			rt.ring.Add(m)
			if b, ok := rt.retired[m]; ok {
				delete(rt.retired, m)
				rt.order = append(rt.order, b)
			}
		}
	}
	// Drop the departed ones (kept reachable while pinned, like a local
	// remove — pins on this replica come from its own reconcile passes).
	pinnedShards := make(map[string]bool, len(rt.pins))
	for _, shard := range rt.pins {
		pinnedShards[shard] = true
	}
	kept := rt.order[:0]
	for _, b := range rt.order {
		if want[b.base] {
			kept = append(kept, b)
			continue
		}
		rt.ring.Remove(b.base)
		if pinnedShards[b.base] {
			rt.retired[b.base] = b
		} else {
			delete(rt.backends, b.base)
		}
	}
	rt.order = kept
	rt.epoch.Store(epoch)
	rt.met.membershipChanges.Add(1)
	rt.log.Info("membership adopted from gossip", "epoch", epoch, "members", len(members))
}

// gossiper is the background anti-entropy loop.
func (rt *Router) gossiper() {
	defer rt.loopsDone.Done()
	t := time.NewTicker(rt.cfg.GossipInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.loopStop:
			return
		case <-t.C:
			rt.gossipOnce(context.Background())
		}
	}
}

// gossipOnce pushes this router's digest to every peer and merges each
// response digest; tests call it to run one exchange synchronously.
func (rt *Router) gossipOnce(ctx context.Context) {
	d := rt.digest()
	payload, err := json.Marshal(d)
	if err != nil {
		return
	}
	for _, peer := range rt.cfg.GossipPeers {
		rt.met.gossipRounds.Add(1)
		ctx, cancel := context.WithTimeout(ctx, probeTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			peer+"/gossip", bytes.NewReader(payload))
		if err != nil {
			cancel()
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		if rt.cfg.AdminToken != "" {
			req.Header.Set("Authorization", "Bearer "+rt.cfg.AdminToken)
		}
		resp, err := rt.proxyClient.Do(req)
		if err != nil {
			cancel()
			rt.met.gossipFailures.Add(1)
			continue
		}
		var reply cluster.Digest
		if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&reply) == nil {
			rt.mergeDigest(reply)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		cancel()
	}
}

// handleGossip answers a peer's push: merge its digest, reply with ours.
// When an admin token is configured the exchange must carry it — a
// membership view is admin state, and adopting one from an unauthenticated
// source would let anyone re-shape the fleet.
func (rt *Router) handleGossip(w http.ResponseWriter, r *http.Request) {
	if rt.cfg.AdminToken != "" && !rt.authorized(r) {
		api.WriteError(w, http.StatusUnauthorized, "gossip token required")
		return
	}
	var d cluster.Digest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(&d); err != nil {
		api.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	rt.mergeDigest(d)
	api.WriteJSON(w, http.StatusOK, rt.digest())
}
