package tenant

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func mustTree(t *testing.T, tenants []NodeSpec, cfg Config) *Tree {
	t.Helper()
	tr, err := New(tenants, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name    string
		tenants []NodeSpec
		cfg     Config
		errPart string
	}{
		{"zero capacity", nil, Config{}, "capacity"},
		{"bad name", []NodeSpec{{Name: "a/b"}}, Config{Capacity: 1}, "must match"},
		{"empty name", []NodeSpec{{Name: ""}}, Config{Capacity: 1}, "must match"},
		{"duplicate", []NodeSpec{{Name: "a"}, {Name: "a"}}, Config{Capacity: 1}, "duplicate"},
		{"negative share", []NodeSpec{{Name: "a", Share: -1}}, Config{Capacity: 1}, "share"},
		{"negative weight", []NodeSpec{{Name: "a", OverQuotaWeight: -2}}, Config{Capacity: 1}, "over-quota"},
		{"floor above one", []NodeSpec{{Name: "a", MBRFloor: 1.5}}, Config{Capacity: 1}, "MBR floor"},
		{"bad default floor", nil, Config{Capacity: 1, DefaultMBRFloor: 2}, "MBR floor"},
		{"NaN share", []NodeSpec{{Name: "a", Share: nan}}, Config{Capacity: 1}, "share"},
		{"+Inf share", []NodeSpec{{Name: "a", Share: inf}}, Config{Capacity: 1}, "share"},
		{"-Inf share", []NodeSpec{{Name: "a", Share: -inf}}, Config{Capacity: 1}, "share"},
		{"NaN weight", []NodeSpec{{Name: "a", OverQuotaWeight: nan}}, Config{Capacity: 1}, "over-quota"},
		{"+Inf weight", []NodeSpec{{Name: "a", OverQuotaWeight: inf}}, Config{Capacity: 1}, "over-quota"},
		{"-Inf weight", []NodeSpec{{Name: "a", OverQuotaWeight: -inf}}, Config{Capacity: 1}, "over-quota"},
		{"NaN floor", []NodeSpec{{Name: "a", MBRFloor: nan}}, Config{Capacity: 1}, "MBR floor"},
		{"+Inf floor", []NodeSpec{{Name: "a", MBRFloor: inf}}, Config{Capacity: 1}, "MBR floor"},
		{"-Inf floor", []NodeSpec{{Name: "a", MBRFloor: -inf}}, Config{Capacity: 1}, "MBR floor"},
		{"NaN default floor", nil, Config{Capacity: 1, DefaultMBRFloor: nan}, "MBR floor"},
		{"+Inf default floor", nil, Config{Capacity: 1, DefaultMBRFloor: inf}, "MBR floor"},
		{"-Inf default floor", nil, Config{Capacity: 1, DefaultMBRFloor: -inf}, "MBR floor"},
		{"share above cap", []NodeSpec{{Name: "a", Share: 1e10}}, Config{Capacity: 1}, "share"},
		{"weight above cap", []NodeSpec{{Name: "a", OverQuotaWeight: 1e10}}, Config{Capacity: 1}, "over-quota"},
		{"NaN capacity", nil, Config{Capacity: nan}, "capacity"},
		{"+Inf capacity", nil, Config{Capacity: inf}, "capacity"},
	}
	for _, tc := range cases {
		if _, err := New(tc.tenants, tc.cfg); err == nil || !strings.Contains(err.Error(), tc.errPart) {
			t.Errorf("%s: error %v, want containing %q", tc.name, err, tc.errPart)
		}
	}
}

// TestDeservedSplit: entitlement follows shares down the tree, and
// saturated tenants converge onto exactly their deserved budget.
func TestDeservedSplit(t *testing.T) {
	tr := mustTree(t, []NodeSpec{
		{Name: "a", Share: 1},
		{Name: "b", Share: 3, Children: []NodeSpec{{Name: "x"}, {Name: "y", Share: 2}}},
	}, Config{Capacity: 8})
	for _, p := range []string{"a", "b/x", "b/y"} {
		if err := tr.SetDemand(p, 100); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		tr.Rebalance()
	}
	want := map[string]float64{"a": 2, "b": 6, "b/x": 2, "b/y": 4}
	for p, w := range want {
		if d := tr.Deserved(p); math.Abs(d-w) > 1e-9 {
			t.Errorf("Deserved(%s) = %g, want %g", p, d, w)
		}
		if g := tr.Granted(p); math.Abs(g-w) > 1e-6 {
			t.Errorf("Granted(%s) = %g, want %g (saturated ⇒ deserved)", p, g, w)
		}
	}
}

// TestLendThenReclaim is the subsystem's core story: an idle tenant's
// budget is lent to a saturated sibling, and when the idle tenant's demand
// returns it is reclaimed with bounded per-epoch cuts — floor immediately,
// full deserved share within the halving schedule's length.
func TestLendThenReclaim(t *testing.T) {
	tr := mustTree(t, []NodeSpec{{Name: "lend"}, {Name: "busy"}}, Config{Capacity: 8})
	if err := tr.SetDemand("lend", 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetDemand("busy", 8); err != nil {
		t.Fatal(err)
	}
	tr.Rebalance()
	if g := tr.Granted("busy"); math.Abs(g-8) > 1e-9 {
		t.Fatalf("busy granted %g after lending epoch, want 8", g)
	}
	if g := tr.Granted("lend"); g > 1e-9 {
		t.Fatalf("idle lender granted %g, want 0", g)
	}

	// Demand returns: the first reclaim epoch must be bounded (half the
	// gap), yet the lender gets its floor back immediately.
	if err := tr.SetDemand("lend", 4); err != nil {
		t.Fatal(err)
	}
	tr.Rebalance()
	gBusy, gLend := tr.Granted("busy"), tr.Granted("lend")
	// Gap is 4, so the schedule's opening cut is 2: busy 8→6 exactly, and
	// the freed 2 goes to the lender — already past its floor of 1.
	if math.Abs(gBusy-6) > 1e-9 {
		t.Fatalf("first reclaim epoch: busy granted %g, want exactly 6 (bounded cut)", gBusy)
	}
	if math.Abs(gLend-2) > 1e-9 {
		t.Fatalf("first reclaim epoch: lender granted %g, want 2", gLend)
	}
	if floor := 0.25 * 4.0; gLend < floor-1e-9 {
		t.Fatalf("lender below MBR floor after demand returned: %g < %g", gLend, floor)
	}
	if r := tr.byPath["busy"].reclaimedTotal; math.Abs(r-2) > 1e-9 {
		t.Fatalf("busy's reclaimed total = %g, want the 2 cut this epoch", r)
	}

	// Full deserved share restored within the schedule's length:
	// ceil(log2(gap/minStep)) + slack epochs.
	for i := 0; i < 12; i++ {
		tr.Rebalance()
	}
	if g := tr.Granted("lend"); math.Abs(g-4) > 1e-6 {
		t.Fatalf("lender not restored to deserved share: %g, want 4", g)
	}
	if g := tr.Granted("busy"); math.Abs(g-4) > 1e-6 {
		t.Fatalf("borrower not cut back to deserved share: %g, want 4", g)
	}
}

// TestParkedSliceNoChurn: with no borrower in sight, an idle tenant keeps
// its slice — no lending is recorded and nothing is cut back and forth.
func TestParkedSliceNoChurn(t *testing.T) {
	tr := mustTree(t, []NodeSpec{{Name: "idle"}, {Name: "calm"}}, Config{Capacity: 8})
	if err := tr.SetDemand("idle", 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetDemand("calm", 2); err != nil { // under its own slice
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tr.Rebalance()
	}
	for _, s := range tr.StatusAll() {
		if s.LentTotal > 1e-9 || s.ReclaimedTotal > 1e-9 {
			t.Fatalf("phantom lending without a borrower: %+v", s)
		}
	}
	if g := tr.Granted("idle"); math.Abs(g-4) > 1e-6 {
		t.Fatalf("idle tenant's parked slice = %g, want 4", g)
	}
}

func TestDisableLending(t *testing.T) {
	tr := mustTree(t, []NodeSpec{{Name: "idle"}, {Name: "busy"}},
		Config{Capacity: 8, DisableLending: true})
	if err := tr.SetDemand("busy", 100); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tr.Rebalance()
	}
	if g := tr.Granted("busy"); g > 4+1e-9 {
		t.Fatalf("static quotas leaked budget: busy granted %g > slice 4", g)
	}
}

func TestEnsure(t *testing.T) {
	tr := mustTree(t, nil, Config{Capacity: 8})
	created, err := tr.Ensure("acme/prod")
	if err != nil || !created {
		t.Fatalf("Ensure(acme/prod) = %v, %v; want created", created, err)
	}
	created, err = tr.Ensure("acme/prod")
	if err != nil || created {
		t.Fatalf("second Ensure(acme/prod) = %v, %v; want no-op", created, err)
	}
	if _, err := tr.Ensure("acme"); err == nil {
		t.Fatal("Ensure(acme) on an internal node should refuse (not a leaf)")
	}
	if err := tr.SetDemand("acme", 1); err == nil {
		t.Fatal("SetDemand on internal node should refuse")
	}
	if err := tr.SetDemand("acme/prod", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Ensure(""); err == nil {
		t.Fatal("Ensure(\"\") should refuse")
	}
	if _, err := tr.Ensure("bad name"); err == nil {
		t.Fatal("Ensure with bad segment should refuse")
	}
	if got := tr.Tenants(); len(got) != 2 || got[0] != "acme" || got[1] != "acme/prod" {
		t.Fatalf("Tenants() = %v", got)
	}
}

// TestLateArrivalGetsFloorImmediately: a tenant registered while its
// siblings hold the whole budget still receives its MBR floor on the very
// next epoch — the Theorem 2 analogue for admission-time fairness.
func TestLateArrivalGetsFloorImmediately(t *testing.T) {
	tr := mustTree(t, []NodeSpec{{Name: "old"}}, Config{Capacity: 9})
	if err := tr.SetDemand("old", 9); err != nil {
		t.Fatal(err)
	}
	tr.Rebalance()
	if g := tr.Granted("old"); math.Abs(g-9) > 1e-9 {
		t.Fatalf("old granted %g, want 9", g)
	}
	if _, err := tr.Ensure("fresh"); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetDemand("fresh", 9); err != nil {
		t.Fatal(err)
	}
	tr.Rebalance()
	// fresh's slice is 4.5 (equal shares), floor 0.25 ⇒ ≥ 1.125 right away.
	if g := tr.Granted("fresh"); g < 0.25*4.5-1e-9 {
		t.Fatalf("late arrival below floor: %g < %g", g, 0.25*4.5)
	}
	for i := 0; i < 15; i++ {
		tr.Rebalance()
	}
	if g := tr.Granted("fresh"); math.Abs(g-4.5) > 1e-6 {
		t.Fatalf("late arrival never reached deserved share: %g, want 4.5", g)
	}
}

func TestEffectiveMBRFloor(t *testing.T) {
	tr := mustTree(t, []NodeSpec{{Name: "a", MBRFloor: 0.4}, {Name: "b"}},
		Config{Capacity: 8, DefaultMBRFloor: 0.3})
	if f, err := tr.EffectiveMBRFloor("a"); err != nil || f != 0.4 {
		t.Fatalf("EffectiveMBRFloor(a) = %g, %v; want 0.4", f, err)
	}
	if f, err := tr.EffectiveMBRFloor("b"); err != nil || f != 0.3 {
		t.Fatalf("EffectiveMBRFloor(b) = %g, %v; want 0.3 (default)", f, err)
	}
	if _, err := tr.EffectiveMBRFloor("nope"); err == nil {
		t.Fatal("unknown tenant should error")
	}
}

func TestStatusAll(t *testing.T) {
	tr := mustTree(t, []NodeSpec{{Name: "a"}, {Name: "b"}}, Config{Capacity: 8})
	if err := tr.SetDemand("b", 8); err != nil {
		t.Fatal(err)
	}
	tr.Rebalance()
	st := tr.StatusAll()
	if len(st) != 2 || st[0].Path != "a" || st[1].Path != "b" {
		t.Fatalf("StatusAll order: %+v", st)
	}
	if st[0].Lent != 4 || st[1].Borrowed != 4 {
		t.Fatalf("lent/borrowed gauges: a.Lent=%g b.Borrowed=%g, want 4/4",
			st[0].Lent, st[1].Borrowed)
	}
	if !st[0].Leaf || st[0].Deserved != 4 || st[0].Slice != 4 {
		t.Fatalf("status a: %+v", st[0])
	}
	if st[0].LentTotal <= 0 {
		t.Fatalf("a.LentTotal = %g, want > 0", st[0].LentTotal)
	}
	if tr.Epochs() != 1 {
		t.Fatalf("Epochs() = %d, want 1", tr.Epochs())
	}
}

// EffectiveMBRFloor resolves the fairness floor the tree guarantees path.
func (t *Tree) EffectiveMBRFloor(path string) (float64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n, ok := t.byPath[path]
	if !ok {
		return 0, fmt.Errorf("tenant: unknown tenant %q", path)
	}
	return n.floor, nil
}

// Tenants lists the registered tenant paths, sorted.
func (t *Tree) Tenants() []string {
	var out []string
	for _, s := range t.StatusAll() {
		out = append(out, s.Path)
	}
	return out
}
