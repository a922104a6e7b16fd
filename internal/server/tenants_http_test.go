package server_test

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/server"
	"rebudget/internal/server/client"
	"rebudget/internal/snapshot"
)

// tenancy builds a quiet TenancyConfig for tests: the ticker is pushed out
// of the way so only the constructor's (and register's) deterministic
// rebalances run.
func tenancy(t *testing.T, tenants string) *server.TenancyConfig {
	t.Helper()
	specs, err := server.ParseTenants(tenants)
	if err != nil {
		t.Fatal(err)
	}
	return &server.TenancyConfig{Tenants: specs, Epoch: time.Hour}
}

// rawCreate posts a session spec over plain HTTP so the test can set
// headers the typed client doesn't expose.
func rawCreate(t *testing.T, url, body, tenantHeader string) (*http.Response, api.SessionView) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/sessions", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenantHeader != "" {
		req.Header.Set(api.TenantHeader, tenantHeader)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v api.SessionView
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return resp, v
}

// TestTenantLabelFlow covers the label plumbing end to end: spec field,
// header fallback, configured default, the client surfacing the label on
// create/list, and the per-tenant metric series (including that the
// deprecated unsuffixed dispatch gauges stay gone).
func TestTenantLabelFlow(t *testing.T) {
	cfg := server.Config{Tenancy: tenancy(t, "gold:3,bronze:1")}
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	c := client.New(ts.URL)
	ctx := context.Background()

	v, err := c.CreateSession(ctx, api.SessionSpec{
		ID: "g1", Tenant: "gold",
		Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "equalshare",
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Tenant != "gold" {
		t.Fatalf("create view tenant = %q, want gold", v.Tenant)
	}

	v, err = c.CreateSession(ctx, api.SessionSpec{
		ID: "d1", Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "equalshare",
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Tenant != "default" {
		t.Fatalf("unlabelled session tenant = %q, want the configured default", v.Tenant)
	}

	// Spec empty + header set: the header labels the session (this is the
	// path the router's pass-through feeds).
	resp, hv := rawCreate(t, ts.URL,
		`{"id":"b1","workload":{"fig3":true},"mechanism":"equalshare"}`, "bronze")
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("header create status %d", resp.StatusCode)
	}
	if hv.Tenant != "bronze" {
		t.Fatalf("header-labelled session tenant = %q, want bronze", hv.Tenant)
	}

	// A malformed header is a client error, not a silent default.
	resp, _ = rawCreate(t, ts.URL,
		`{"id":"b2","workload":{"fig3":true},"mechanism":"equalshare"}`, "not a tenant")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad tenant header: status %d, want 400", resp.StatusCode)
	}

	// List surfaces the labels too — loadgen/smoke can assert placement
	// without scraping /metrics.
	views, err := c.ListSessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]string{}
	for _, lv := range views {
		byID[lv.ID] = lv.Tenant
	}
	want := map[string]string{"g1": "gold", "d1": "default", "b1": "bronze"}
	for id, tenant := range want {
		if byID[id] != tenant {
			t.Fatalf("list: session %s tenant = %q, want %q (all: %v)", id, byID[id], tenant, byID)
		}
	}

	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{
		`rebudgetd_tenant_granted_cost{tenant="gold"}`,
		`rebudgetd_tenant_deserved_cost{tenant="bronze"}`,
		`rebudgetd_tenant_fairness{tenant="default"}`,
		`rebudgetd_tenant_sessions{tenant="gold"} 1`,
		"rebudgetd_tenant_rebalance_epochs_total",
	} {
		if !strings.Contains(body, needle) {
			t.Errorf("/metrics missing %s", needle)
		}
	}
	// gold deserves 3x bronze's budget: check the exposed gauges agree.
	if gold, bronze := metricVal(t, body, `rebudgetd_tenant_deserved_cost{tenant="gold"}`),
		metricVal(t, body, `rebudgetd_tenant_deserved_cost{tenant="bronze"}`); gold <= bronze {
		t.Errorf("deserved gold %g should exceed bronze %g (shares 3:1)", gold, bronze)
	}
	// The deprecated unsuffixed dispatch series must stay removed; only the
	// *_cost variants are canonical now.
	for _, gone := range []string{"rebudgetd_dispatch_in_flight ", "rebudgetd_dispatch_queued "} {
		if strings.Contains(body, gone) {
			t.Errorf("deprecated metric %q resurfaced in /metrics", strings.TrimSpace(gone))
		}
	}
}

// metricVal extracts the sample value of an exact series (name plus label
// set) from Prometheus text exposition.
func metricVal(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q: %v", series, rest, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in /metrics", series)
	return 0
}

// TestTenantSnapshotRoundTrip: the tenant label must survive drain →
// snapshot (version 3) → rehydrate on a fresh daemon, landing the session
// back under its tenant's budget.
func TestTenantSnapshotRoundTrip(t *testing.T) {
	st, _ := fileStore(t)
	ctx := context.Background()

	_, a, shutdownA := startDaemonWith(t, server.Config{Snapshots: st, Tenancy: tenancy(t, "")})
	if _, err := a.CreateSession(ctx, api.SessionSpec{
		ID: "mkt", Tenant: "acme/prod",
		Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "equalshare",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.StepEpoch(ctx, "mkt"); err != nil {
		t.Fatal(err)
	}
	shutdownA()

	// The file on disk is a version-3 snapshot carrying the label in its spec.
	raw, err := st.LoadRaw("mkt")
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot.Session
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != 3 || snapshot.Version != 3 {
		t.Fatalf("snapshot version %d (const %d), want 3", snap.Version, snapshot.Version)
	}
	if snap.Spec.Tenant != "acme/prod" {
		t.Fatalf("snapshot spec tenant = %q, want acme/prod", snap.Spec.Tenant)
	}

	_, b, _ := startDaemonWith(t, server.Config{Snapshots: st, Tenancy: tenancy(t, "")})
	v, err := b.GetSession(ctx, "mkt") // lazy rehydrate on first touch
	if err != nil {
		t.Fatalf("rehydrate: %v", err)
	}
	if v.Tenant != "acme/prod" {
		t.Fatalf("rehydrated session tenant = %q, want acme/prod", v.Tenant)
	}
	body, err := b.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, `rebudgetd_tenant_granted_cost{tenant="acme/prod"}`) {
		t.Fatal("rehydrated tenant not registered in the budget tree")
	}

	// A daemon without tenancy still rehydrates the same snapshot and
	// carries the label (it just gates nothing).
	st2, _ := fileStore(t)
	if err := st2.SaveRaw("mkt", raw); err != nil {
		t.Fatal(err)
	}
	_, plain, _ := startDaemonWith(t, server.Config{Snapshots: st2})
	pv, err := plain.GetSession(ctx, "mkt")
	if err != nil {
		t.Fatalf("tenancy-less rehydrate: %v", err)
	}
	if pv.Tenant != "acme/prod" {
		t.Fatalf("tenancy-less rehydrate dropped the label: %q", pv.Tenant)
	}
}
