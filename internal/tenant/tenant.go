// Package tenant is the hierarchical budget economy on top of the core
// market: a quota tree (root → tenant → sub-tenant) over the session
// population, where each node carries a *deserved* budget share, an
// over-quota weight, and a fairness floor. An epoch-driven rebalancer
// (Rebalance) lends idle tenants' unused budget to over-quota tenants by
// weight, and reclaims it with ReBudget-style bounded per-epoch cuts
// (core.CutSchedule — the §4.2 step/minStep machinery, reused, not
// duplicated) when the lender's demand returns.
//
// This is the paper's budget-reassignment machinery lifted one level up:
// ReBudget moves budget between players on one chip; the tenant tree moves
// it between tenants across the fleet. The Theorem 2 analogue holds at this
// level too — a demanding tenant's granted budget never drops below its
// MBR floor of its slice, instantly, while the full deserved share is
// restored within a bounded number of epochs (the halving schedule's
// length). internal/tenant/property_test.go proves both over randomized
// trees and demand traces; DESIGN.md "Tenant economy" states the argument.
//
// Budget units are deliberately abstract. The serving tier instantiates
// them as dispatcher cost units (concurrent admission budget), the
// experiments sweep as generic capacity.
package tenant

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"

	"rebudget/internal/core"
)

// NodeSpec declares one tenant in the configured tree. Names are path
// segments; the tree addresses nodes by their full slash-joined path
// (e.g. "acme/prod").
type NodeSpec struct {
	// Name is the path segment ([A-Za-z0-9_-], ≤64 chars).
	Name string `json:"name"`
	// Share is the node's deserved weight among its siblings (default 1):
	// the node's deserved budget is its parent's, split by share.
	Share float64 `json:"share,omitempty"`
	// OverQuotaWeight sets how aggressively the node receives lent budget
	// when it demands beyond its slice (default 1; 0 keeps the default).
	OverQuotaWeight float64 `json:"over_quota_weight,omitempty"`
	// MBRFloor is the fairness floor: the lowest admissible ratio of the
	// node's granted budget to its slice while it demands at least that
	// much — the tenant-level analogue of ReBudget's MBRFloor. 0 selects
	// the tree default.
	MBRFloor float64 `json:"mbr_floor,omitempty"`
	// Children are sub-tenants; a node with children cannot host demand
	// itself (sessions attach to leaves).
	Children []NodeSpec `json:"children,omitempty"`
}

// Config tunes the tree's rebalancer. Zero values select the documented
// defaults.
type Config struct {
	// Capacity is the root budget the tree divides (required, > 0).
	Capacity float64
	// DefaultMBRFloor applies to nodes that don't set their own (default
	// 0.25, in (0, 1]).
	DefaultMBRFloor float64
	// DisableLending turns the tree into static per-tenant quotas — each
	// tenant gets min(demand, slice), idle headroom is never lent. The
	// experiments sweep uses it as the efficiency baseline.
	DisableLending bool
}

func (c Config) withDefaults() (Config, error) {
	// NaN fails every comparison below as written; +Inf is named.
	if !(c.Capacity > 0) || math.IsInf(c.Capacity, 1) {
		return c, fmt.Errorf("tenant: capacity %g must be > 0", c.Capacity)
	}
	if c.DefaultMBRFloor == 0 {
		c.DefaultMBRFloor = 0.25
	}
	if !(c.DefaultMBRFloor > 0 && c.DefaultMBRFloor <= 1) {
		return c, fmt.Errorf("tenant: default MBR floor %g outside (0,1]", c.DefaultMBRFloor)
	}
	return c, nil
}

// maxWeight bounds shares and over-quota weights. Both only matter as
// ratios among siblings, so any ratio a deployment needs fits below it,
// and it keeps their sums and their products with a budget finite.
const maxWeight = 1e9

var segPattern = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// node is one tenant in the tree. All fields are guarded by the Tree mutex.
type node struct {
	path     string // full slash-joined path; the tree-wide key
	share    float64
	oqWeight float64
	floor    float64

	parent   *node
	children []*node

	demand float64 // leaf-set demand (budget units wanted)
	agg    float64 // aggregate demand this epoch (own + subtree)

	deserved float64 // entitlement: capacity × share fractions down the tree
	slice    float64 // this epoch's share of what the parent actually holds
	target   float64 // this epoch's post-lending entitlement
	granted  float64 // what the tenant may use now (bounded movement state)

	// Reclaim cycle: a core.CutSchedule opened when granted must shrink
	// toward target, sized §4.2-style at half the gap so the halving series
	// covers it; sizedGap remembers what it was opened for so a widened gap
	// re-arms the schedule.
	sched    *core.CutSchedule
	sizedGap float64

	// Cumulative flow counters (monotonic, for Prometheus).
	lentTotal      float64 // budget-epochs this node's granted sat below deserved
	reclaimedTotal float64 // budget actually cut back from this node
}

// Tree is the tenant budget economy. Safe for concurrent use; Rebalance is
// the only mutator of budget state, demand arrives via SetDemand.
type Tree struct {
	mu     sync.Mutex
	cfg    Config
	root   *node
	byPath map[string]*node
	epochs int64
}

// New builds a tree from the root's children (the root itself is implicit:
// it holds Capacity and is named ""). An empty spec list is valid — tenants
// can be added later with Ensure.
func New(tenants []NodeSpec, cfg Config) (*Tree, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	t := &Tree{
		cfg:    cfg,
		root:   &node{path: "", share: 1, oqWeight: 1, floor: cfg.DefaultMBRFloor},
		byPath: map[string]*node{},
	}
	t.root.granted = cfg.Capacity
	for _, spec := range tenants {
		if err := t.addSpec(t.root, spec); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// addSpec attaches spec (and its children) under parent. Caller holds no
// lock yet (construction) or the tree lock (Ensure).
func (t *Tree) addSpec(parent *node, spec NodeSpec) error {
	if !segPattern.MatchString(spec.Name) {
		return fmt.Errorf("tenant: name %q must match %s", spec.Name, segPattern)
	}
	path := spec.Name
	if parent.path != "" {
		path = parent.path + "/" + spec.Name
	}
	if _, dup := t.byPath[path]; dup {
		return fmt.Errorf("tenant: duplicate tenant %q", path)
	}
	// NaN fails every comparison below as written.
	if !(spec.Share >= 0) {
		return fmt.Errorf("tenant %q: share %g must be >= 0", path, spec.Share)
	}
	if !(spec.OverQuotaWeight >= 0) {
		return fmt.Errorf("tenant %q: over-quota weight %g must be >= 0", path, spec.OverQuotaWeight)
	}
	if spec.Share > maxWeight || spec.OverQuotaWeight > maxWeight {
		return fmt.Errorf("tenant %q: share %g or over-quota weight %g above %g",
			path, spec.Share, spec.OverQuotaWeight, float64(maxWeight))
	}
	if !(spec.MBRFloor >= 0 && spec.MBRFloor <= 1) {
		return fmt.Errorf("tenant %q: MBR floor %g outside [0,1]", path, spec.MBRFloor)
	}
	n := &node{
		path:     path,
		share:    spec.Share,
		oqWeight: spec.OverQuotaWeight,
		floor:    spec.MBRFloor,
		parent:   parent,
	}
	if n.share == 0 {
		n.share = 1
	}
	if n.oqWeight == 0 {
		n.oqWeight = 1
	}
	if n.floor == 0 {
		n.floor = t.cfg.DefaultMBRFloor
	}
	parent.children = append(parent.children, n)
	// A leaf promoted to an internal node aggregates its children's demand
	// from now on; its own leaf demand (no longer settable) is dropped.
	parent.demand = 0
	t.byPath[path] = n
	for _, child := range spec.Children {
		if err := t.addSpec(n, child); err != nil {
			return err
		}
	}
	return nil
}

// Ensure registers path (creating intermediate nodes with default share,
// weight and floor) and returns whether it created anything. Unknown
// tenants arriving with live traffic self-register this way, so a tenant
// mix needs no up-front configuration — exactly how the serving tier
// admits a fresh tenant label.
func (t *Tree) Ensure(path string) (created bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if path == "" {
		return false, fmt.Errorf("tenant: empty tenant path")
	}
	if n, ok := t.byPath[path]; ok {
		if len(n.children) > 0 {
			return false, fmt.Errorf("tenant %q is not a leaf", path)
		}
		return false, nil
	}
	cur := t.root
	prefix := ""
	for _, seg := range strings.Split(path, "/") {
		if prefix == "" {
			prefix = seg
		} else {
			prefix = prefix + "/" + seg
		}
		next, ok := t.byPath[prefix]
		if !ok {
			if err := t.addSpec(cur, NodeSpec{Name: seg}); err != nil {
				return created, err
			}
			next = t.byPath[prefix]
			created = true
		}
		cur = next
	}
	return created, nil
}

// SetDemand records a leaf tenant's current demand (budget units wanted).
// Demand on an internal node is refused: sessions attach to leaves, and the
// tree aggregates upward itself.
func (t *Tree) SetDemand(path string, demand float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.byPath[path]
	if !ok {
		return fmt.Errorf("tenant: unknown tenant %q", path)
	}
	if len(n.children) > 0 {
		return fmt.Errorf("tenant %q is not a leaf", path)
	}
	if !(demand > 0) { // negative or NaN
		demand = 0
	}
	n.demand = demand
	return nil
}

// Granted reports what path may use right now (0 for unknown tenants).
func (t *Tree) Granted(path string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n, ok := t.byPath[path]; ok {
		return n.granted
	}
	return 0
}

// Deserved reports path's static entitlement as of the last Rebalance.
func (t *Tree) Deserved(path string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n, ok := t.byPath[path]; ok {
		return n.deserved
	}
	return 0
}

// Epochs reports how many Rebalance epochs have run.
func (t *Tree) Epochs() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epochs
}

// Status is one tenant's externally visible state, as of the last
// Rebalance. Lent and Borrowed are the two signs of granted − deserved;
// the cumulative totals are monotonic counters for Prometheus.
type Status struct {
	Path            string
	Leaf            bool
	Share           float64
	OverQuotaWeight float64
	MBRFloor        float64
	Demand          float64 // aggregate (own + subtree)
	Deserved        float64
	Slice           float64 // this epoch's share of the parent's actual grant
	Granted         float64
	Lent            float64 // max(0, deserved − granted)
	Borrowed        float64 // max(0, granted − deserved)
	Reclaiming      bool    // a bounded-cut cycle is currently open
	LentTotal       float64
	ReclaimedTotal  float64
}

// StatusAll reports every tenant's state, sorted by path — the metrics
// rendering order.
func (t *Tree) StatusAll() []Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	paths := make([]string, 0, len(t.byPath))
	for p := range t.byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]Status, 0, len(paths))
	for _, p := range paths {
		n := t.byPath[p]
		s := Status{
			Path:            n.path,
			Leaf:            len(n.children) == 0,
			Share:           n.share,
			OverQuotaWeight: n.oqWeight,
			MBRFloor:        n.floor,
			Demand:          n.agg,
			Deserved:        n.deserved,
			Slice:           n.slice,
			Granted:         n.granted,
			Reclaiming:      n.sched != nil,
			LentTotal:       n.lentTotal,
			ReclaimedTotal:  n.reclaimedTotal,
		}
		if d := n.deserved - n.granted; d > 0 {
			s.Lent = d
		} else {
			s.Borrowed = -d
		}
		out = append(out, s)
	}
	return out
}
