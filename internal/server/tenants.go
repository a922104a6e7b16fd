package server

import (
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/tenant"
)

// defaultTenant labels sessions that arrive with neither a spec tenant nor
// a TenantHeader.
const defaultTenant = "default"

// TenancyConfig arms the hierarchical tenant budget economy: the
// dispatcher's cost capacity is the root budget of a tenant tree
// (internal/tenant), each tenant's sessions admit against its granted
// sub-budget, and an epoch ticker rebalances grants — lending idle
// tenants' headroom, reclaiming it with bounded cuts when demand returns.
// A nil TenancyConfig (the default) leaves admission exactly as before:
// one flat dispatcher budget.
type TenancyConfig struct {
	// Tenants pre-declares the tree under the root (optional): unknown
	// labels self-register as leaves with default share, weight and floor.
	Tenants []tenant.NodeSpec
	// Epoch is the rebalance period (default 250ms).
	Epoch time.Duration
	// MBRFloor is the default per-tenant fairness floor (default 0.25).
	MBRFloor float64
}

// tenantUsage is one tenant's admission-side state, guarded by the
// governor mutex.
type tenantUsage struct {
	// inFlight is the cost currently admitted under this tenant's grant.
	inFlight float64
	// peak is the highest wanted in-flight cost (admitted or refused)
	// since the last rebalance — the demand signal. Refused demand counts:
	// a starved tenant must look demanding, or it could never grow.
	peak float64
	// demand is the value last fed to the tree: peak, decayed geometrically
	// so demand falls smoothly after a burst instead of collapsing to the
	// instantaneous in-flight level.
	demand   float64
	admitted int64
	rejected int64
}

// tenantGovernor gates admission by tenant: each tenant's concurrent cost
// is capped by its granted share of the dispatcher budget, and a ticker
// drives the tree's lend/reclaim epochs. It sits in front of the existing
// weighted FIFO dispatcher — the dispatcher still bounds the fleet total;
// the governor decides whose requests may claim it, so one tenant cannot
// starve another at admission time.
type tenantGovernor struct {
	tree  *tenant.Tree
	epoch time.Duration
	log   *slog.Logger

	mu    sync.Mutex
	usage map[string]*tenantUsage

	stop chan struct{}
	done chan struct{}
}

// newTenantGovernor builds the tree over capacity, the dispatcher's cost
// budget, runs the first rebalance (so configured tenants hold their parked
// slices before any traffic), and starts the epoch ticker.
func newTenantGovernor(cfg TenancyConfig, capacity float64, log *slog.Logger) (*tenantGovernor, error) {
	if cfg.Epoch <= 0 {
		cfg.Epoch = 250 * time.Millisecond
	}
	tree, err := tenant.New(cfg.Tenants, tenant.Config{
		Capacity:        capacity,
		DefaultMBRFloor: cfg.MBRFloor,
	})
	if err != nil {
		return nil, err
	}
	g := &tenantGovernor{
		tree:  tree,
		epoch: cfg.Epoch,
		log:   log,
		usage: map[string]*tenantUsage{},
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	tree.Rebalance()
	go g.loop()
	return g, nil
}

func (g *tenantGovernor) loop() {
	defer close(g.done)
	t := time.NewTicker(g.epoch)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.rebalanceOnce()
		}
	}
}

func (g *tenantGovernor) close() {
	close(g.stop)
	<-g.done
}

// register ensures the tenant exists in the tree, rebalancing immediately
// on first sight so the newcomer holds its floor before its first
// admission check (the late-arrival guarantee the tenant package proves).
func (g *tenantGovernor) register(path string) error {
	created, err := g.tree.Ensure(path)
	if err != nil {
		return err
	}
	if created {
		g.tree.Rebalance()
		g.log.Info("tenant registered", "tenant", path)
	}
	return nil
}

// adopt settles the label a session joins the economy under — path, or the
// default tenant for an unlabeled one — and registers it. Without a governor
// (g == nil) labels pass through untouched.
func (g *tenantGovernor) adopt(path string) (string, error) {
	if g == nil {
		return path, nil
	}
	if path == "" {
		path = defaultTenant
	}
	return path, g.register(path)
}

// admit charges cost units against the tenant's granted sub-budget. A
// refusal reports how long until the next rebalance epoch — the honest
// Retry-After. An idle tenant always admits its first request even past
// its grant (mirroring the dispatcher's oversize-lease clamp), so a
// freshly shrunk grant can never deadlock a tenant outright. Without a
// governor (g == nil) or a label there is no sub-budget to charge: admit
// says yes and the matching release is a no-op, so Server.admit needs no
// guard of its own.
func (g *tenantGovernor) admit(path string, cost float64) (ok bool, retryAfter time.Duration) {
	if g == nil || path == "" {
		return true, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	u := g.usage[path]
	if u == nil {
		u = &tenantUsage{}
		g.usage[path] = u
	}
	want := u.inFlight + cost
	if want > u.peak {
		u.peak = want
	}
	if u.inFlight > 1e-9 && want > g.tree.Granted(path)+1e-9 {
		u.rejected++
		return false, g.epoch
	}
	u.inFlight = want
	u.admitted++
	return true, 0
}

// release returns admitted cost units. Like the dispatcher, it snaps
// float residue to exactly zero on idle: mixed fractional costs leave
// ~1e-15 behind, which would otherwise defeat admit's idle-tenant
// progress clamp forever (no real cost is anywhere near the epsilon —
// the estimator floors at 0.25 units).
func (g *tenantGovernor) release(path string, cost float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if u := g.usage[path]; u != nil {
		u.inFlight -= cost
		if u.inFlight < 1e-9 {
			u.inFlight = 0
		}
	}
	g.mu.Unlock()
}

// rebalanceOnce feeds each tenant's demand signal into the tree and runs
// one lend/reclaim epoch. Demand rises instantly to the interval's peak
// wanted cost and decays geometrically afterwards, so a burst doesn't
// vanish from the signal the moment it drains.
func (g *tenantGovernor) rebalanceOnce() {
	g.mu.Lock()
	for path, u := range g.usage {
		d := u.peak
		if half := u.demand / 2; d < half {
			d = half
		}
		u.demand = d
		u.peak = u.inFlight
		// A path that stopped being a leaf (a sub-tenant registered under
		// it) can't carry leaf demand anymore; its aggregate speaks for it.
		_ = g.tree.SetDemand(path, d)
	}
	g.mu.Unlock()
	g.tree.Rebalance()
}

// tenantMetric is one tenant's row for /metrics: the tree's budget state
// plus the governor's admission-side counters.
type tenantMetric struct {
	tenant.Status
	InFlight float64
	Admitted int64
	Rejected int64
}

// metricsSnapshot returns per-tenant rows sorted by path, plus the
// rebalance epoch counter.
func (g *tenantGovernor) metricsSnapshot() ([]tenantMetric, int64) {
	statuses := g.tree.StatusAll()
	g.mu.Lock()
	defer g.mu.Unlock()
	rows := make([]tenantMetric, len(statuses))
	for i, st := range statuses {
		rows[i] = tenantMetric{Status: st}
		if u := g.usage[st.Path]; u != nil {
			rows[i].InFlight = u.inFlight
			rows[i].Admitted = u.admitted
			rows[i].Rejected = u.rejected
		}
	}
	return rows, g.tree.Epochs()
}

// ParseTenants parses the rebudgetd -tenants flag: comma-separated
// "path[:share[:weight[:floor]]]" entries, where path is one or more
// [A-Za-z0-9_-] segments joined by "/". Intermediate nodes are created
// with defaults; repeating a path overrides its numbers. Example:
//
//	acme/prod:3:2:0.5,acme/dev:1,free:1:0.5
func ParseTenants(arg string) ([]tenant.NodeSpec, error) {
	type entry struct {
		spec     tenant.NodeSpec
		children map[string]*entry
		order    []string
	}
	root := &entry{children: map[string]*entry{}}
	for _, item := range strings.Split(arg, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.Split(item, ":")
		path := parts[0]
		if !validTenantPath(path) {
			return nil, fmt.Errorf("tenant path %q must be %s segments joined by \"/\"", path, api.IDPattern)
		}
		cur := root
		for _, seg := range strings.Split(path, "/") {
			next := cur.children[seg]
			if next == nil {
				next = &entry{spec: tenant.NodeSpec{Name: seg}, children: map[string]*entry{}}
				cur.children[seg] = next
				cur.order = append(cur.order, seg)
			}
			cur = next
		}
		for i, field := range parts[1:] {
			if field == "" {
				continue
			}
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, fmt.Errorf("tenant %q field %d: %w", path, i+1, err)
			}
			switch i {
			case 0:
				cur.spec.Share = v
			case 1:
				cur.spec.OverQuotaWeight = v
			case 2:
				cur.spec.MBRFloor = v
			default:
				return nil, fmt.Errorf("tenant %q: too many fields", path)
			}
		}
	}
	var build func(e *entry) []tenant.NodeSpec
	build = func(e *entry) []tenant.NodeSpec {
		names := append([]string(nil), e.order...)
		sort.Strings(names)
		var out []tenant.NodeSpec
		for _, name := range names {
			child := e.children[name]
			spec := child.spec
			spec.Children = build(child)
			out = append(out, spec)
		}
		return out
	}
	specs := build(root)
	// Test-build the tree so out-of-range shares/weights/floors surface here
	// (flag-parse time) instead of panicking inside server.New.
	if _, err := tenant.New(specs, tenant.Config{Capacity: 1}); err != nil {
		return nil, err
	}
	return specs, nil
}
