// Package chaos is deterministic fault injection for the serving tier —
// internal/fault's seeded-determinism design lifted one level up, from the
// allocation pipeline to the distributed system around it. Where
// internal/fault corrupts monitor curves and stalls equilibrium solvers,
// this package breaks the network and the disk: a chaos http.RoundTripper
// (Transport) injects latency, connection resets mid-body, 5xx blips and
// full per-shard partitions into the router's proxy path or a client, and
// a FaultySnapshotStore wraps any SnapshotStore with torn writes, EIO on
// save and bit-rot on load.
//
// Everything is driven by per-target xorshift streams derived from one
// seed, so a given (Config, per-target call sequence) always injects the
// same faults — a failing chaos soak reproduces from its seed alone. The
// framework is wired in behind nil checks exactly like internal/fault: a
// disabled Config builds no injector, draws no random numbers, and leaves
// every code path byte-identical to a build without chaos.
package chaos

import (
	"errors"
	"hash/fnv"
	"sync"
	"time"

	"rebudget/internal/numeric"
)

// Injected-fault sentinel errors. Callers (and tests) can errors.Is against
// these to tell a chaos-made failure from a real one.
var (
	// ErrPartitioned is a request dropped by a full network partition.
	ErrPartitioned = errors.New("chaos: host partitioned")
	// ErrReset is a connection reset injected mid-response-body.
	ErrReset = errors.New("chaos: connection reset mid-body")
	// ErrDropped is a connection refused before the request was sent.
	ErrDropped = errors.New("chaos: connection dropped")
	// ErrInjectedIO is a synthetic disk error (EIO) from the faulty
	// snapshot store.
	ErrInjectedIO = errors.New("chaos: injected I/O error")
)

// Config selects fault rates. The zero value disables everything.
type Config struct {
	// Seed drives every per-target random stream (default 1).
	Seed uint64

	// LatencyRate is the per-request probability of an injected delay,
	// uniform in [LatencyMin, LatencyMax] (defaults 2ms–25ms).
	LatencyRate float64
	LatencyMin  time.Duration
	LatencyMax  time.Duration
	// DropRate is the per-request probability the connection is refused
	// before the request is sent (the shard never sees it — safe for the
	// router to retry on the next ring position).
	DropRate float64
	// Blip5xxRate is the per-request probability of a synthesized 503
	// answered without reaching the backend (a flaky middlebox; the
	// "shard answered", so proxies pass it through rather than retry).
	Blip5xxRate float64
	// ResetRate is the per-request probability the response body is cut
	// by a connection reset mid-stream — after the status and headers
	// were already committed, the nastiest spot.
	ResetRate float64

	// SaveEIORate is the per-save probability the snapshot store answers
	// a synthetic EIO without touching the disk.
	SaveEIORate float64
	// TornWriteRate is the per-save probability the snapshot lands torn:
	// the write happens but the stored bytes are truncated mid-file, as
	// if power died between write and fsync.
	TornWriteRate float64
	// LoadCorruptRate is the per-load probability one stored bit flips
	// before the read — storage rot surfacing at the worst time.
	LoadCorruptRate float64
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.LatencyMin <= 0 {
		c.LatencyMin = 2 * time.Millisecond
	}
	if c.LatencyMax < c.LatencyMin {
		c.LatencyMax = 25 * time.Millisecond
		if c.LatencyMax < c.LatencyMin {
			c.LatencyMax = c.LatencyMin
		}
	}
	return c
}

// Enabled reports whether any fault rate is non-zero.
func (c Config) Enabled() bool {
	return c.LatencyRate > 0 || c.DropRate > 0 || c.Blip5xxRate > 0 ||
		c.ResetRate > 0 || c.SaveEIORate > 0 || c.TornWriteRate > 0 ||
		c.LoadCorruptRate > 0
}

// Injector owns the seeded random streams behind every chaos component.
// All methods are safe for a nil receiver (no-ops) and for concurrent use.
//
// Determinism contract (matching internal/fault): each target (a backend
// host for the transport, a session id for the snapshot store) gets its
// own stream, derived from (Seed, target) alone — independent of creation
// order or interleaving across targets. The k-th draw for a target is
// therefore the same in every run that makes the same k calls against it.
type Injector struct {
	cfg Config

	mu      sync.Mutex
	streams map[string]*numeric.Rand
}

// New builds an injector, or returns nil for a disabled Config so callers
// can gate every hook on a simple nil check.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg.withDefaults(), streams: make(map[string]*numeric.Rand)}
}

// stream returns the target's private generator, creating it on first use.
// Callers must hold in.mu.
func (in *Injector) stream(target string) *numeric.Rand {
	r, ok := in.streams[target]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(target))
		r = numeric.NewRand(in.cfg.Seed ^ h.Sum64())
		in.streams[target] = r
	}
	return r
}

// transportPlan is one request's worth of fault decisions, drawn atomically
// in a fixed order so the per-host stream stays aligned.
type transportPlan struct {
	latency time.Duration // 0: none
	drop    bool
	blip    bool
	reset   bool
}

// planRequest draws the fault plan for one request against host.
func (in *Injector) planRequest(host string) transportPlan {
	var p transportPlan
	if in == nil {
		return p
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.stream("net:" + host)
	if r.Float64() < in.cfg.LatencyRate {
		span := float64(in.cfg.LatencyMax - in.cfg.LatencyMin)
		p.latency = in.cfg.LatencyMin + time.Duration(r.Float64()*span)
	}
	p.drop = r.Float64() < in.cfg.DropRate
	p.blip = r.Float64() < in.cfg.Blip5xxRate
	p.reset = r.Float64() < in.cfg.ResetRate
	return p
}

// SetLatencyRate adjusts the injected-latency probability at runtime —
// the scripted latency-spike events of a chaos schedule. Determinism is
// preserved as long as the rate changes happen at the same points of the
// per-target call sequence: the schedule pins them to driver steps, so a
// soak re-run from the same seed flips the rate at the same places.
func (in *Injector) SetLatencyRate(rate float64) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.cfg.LatencyRate = rate
	in.mu.Unlock()
}

// diskPlan is one snapshot operation's fault decision.
type diskPlan struct {
	eio  bool
	torn bool
	// tornAt is the truncation point as a fraction of the file (0.25–0.75).
	tornAt float64
}

// planSave draws the fault plan for one snapshot save of id.
func (in *Injector) planSave(id string) diskPlan {
	var p diskPlan
	if in == nil {
		return p
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.stream("disk:" + id)
	p.eio = r.Float64() < in.cfg.SaveEIORate
	if r.Float64() < in.cfg.TornWriteRate {
		p.torn = true
		p.tornAt = 0.25 + 0.5*r.Float64()
	}
	return p
}

// planLoad reports whether this load of id should flip a stored bit first,
// and with which draw value (used to pick the bit).
func (in *Injector) planLoad(id string) (corrupt bool, draw uint64) {
	if in == nil {
		return false, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.stream("disk:" + id)
	if r.Float64() < in.cfg.LoadCorruptRate {
		return true, r.Uint64()
	}
	return false, 0
}
