package router

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/numeric"
)

// backend is one rebudgetd shard behind the router: its base URL plus the
// router's live view of it. Health flips two ways — actively, from the
// /healthz prober, and passively, when a proxied request fails at the
// transport level (the prober then has to see a good probe to flip it
// back). A draining daemon answers /healthz 503, so drains look exactly
// like deaths to the ring: traffic moves to the next position, which is
// what lets a shared snapshot store turn a drain into a warm migration.
type backend struct {
	base string
	br   *breaker // data-path circuit breaker (see breaker.go)

	healthy  atomic.Bool
	sessions atomic.Int64 // /healthz-reported resident session count
	probes   atomic.Int64 // completed probes (telemetry)

	// obsSeq versions this router's health observation for gossip: bumped
	// on every first-hand flip (probe or data-path), so a fresh local
	// observation outranks anything peers still gossip about the old state.
	// See internal/cluster gossip.go for the merge rule.
	obsSeq atomic.Uint64
}

// setHealthy records a first-hand health observation, bumping the gossip
// sequence only when the state actually flips.
func (b *backend) setHealthy(now bool) {
	if b.healthy.Swap(now) != now {
		b.obsSeq.Add(1)
	}
}

// adoptObservation installs a peer's gossiped observation verbatim — state
// and sequence together, no bump: adoption relays authority, it doesn't
// create any.
func (b *backend) adoptObservation(healthy bool, seq uint64) {
	b.healthy.Store(healthy)
	b.obsSeq.Store(seq)
}

// observation snapshots this backend's gossip view.
func (b *backend) observation() (healthy bool, seq uint64) {
	return b.healthy.Load(), b.obsSeq.Load()
}

// probe checks one backend's /healthz and updates its state, reporting
// whether the backend is healthy.
func (b *backend) probe(ctx context.Context, client *http.Client) bool {
	b.probes.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/healthz", nil)
	if err != nil {
		b.setHealthy(false)
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		b.setHealthy(false)
		return false
	}
	defer resp.Body.Close()
	var body api.Healthz
	ok := resp.StatusCode == http.StatusOK &&
		json.NewDecoder(resp.Body).Decode(&body) == nil && body.Status == "ok"
	if ok {
		b.sessions.Store(int64(body.Sessions))
	}
	b.setHealthy(ok)
	return ok
}

// probeAll probes every backend concurrently (one sweep of the prober
// loop, also called synchronously by tests and at startup).
func (rt *Router) probeAll(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, b := range rt.allBackends() {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			was := b.healthy.Load()
			now := b.probe(ctx, rt.probeClient)
			// Probe outcomes feed the breaker: a good probe lets an open
			// breaker try the data path again (half-open); a bad one can
			// open the breaker before any request has to discover the
			// death for itself.
			if now {
				b.br.onProbeSuccess()
			} else {
				b.br.onProbeFailure()
			}
			if was != now {
				rt.log.Info("shard health changed", "shard", b.base, "healthy", now)
			}
		}(b)
	}
	wg.Wait()
}

// probeJitter spreads each prober sleep uniformly over
// [1-j/2, 1+j/2]×ProbeInterval, i.e. ±10%.
const probeJitter = 0.2

// prober is the background health loop. Each sleep is jittered by
// probeJitter so a fleet of router replicas watching the same shards drifts
// apart instead of probing in lockstep — N replicas × M shards of
// synchronized /healthz traffic is a self-made thundering herd on exactly
// the shards one is worried about. The jitter source is deliberately
// wall-clock seeded: decorrelating replicas is the whole point, so this is
// the one place the router wants real nondeterminism.
func (rt *Router) prober() {
	defer rt.loopsDone.Done()
	rng := numeric.NewRand(uint64(time.Now().UnixNano()) | 1)
	next := func() time.Duration {
		scale := 1 - probeJitter/2 + probeJitter*rng.Float64()
		return time.Duration(float64(rt.cfg.ProbeInterval) * scale)
	}
	t := time.NewTimer(next())
	defer t.Stop()
	for {
		select {
		case <-rt.loopStop:
			return
		case <-t.C:
			rt.probeAll(context.Background())
			t.Reset(next())
		}
	}
}
