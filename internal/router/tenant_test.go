package router

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/server"
	"rebudget/internal/server/client"
)

// Tenant labels must survive the routing hop both ways they can travel: in
// the spec body (which the router decodes and re-marshals for id injection)
// and in the X-Rebudget-Tenant header (which forward must copy).
func TestRouterPassesTenantThrough(t *testing.T) {
	tenancy := &server.TenancyConfig{Epoch: time.Hour}
	shards := make([]string, 2)
	for i := range shards {
		sh := newShard(t, server.Config{Tenancy: tenancy})
		shards[i] = sh.ts.URL
	}
	rt, err := New(Config{
		Backends:      shards,
		ProbeInterval: time.Hour,
		Logger:        discardLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { ts.Close(); rt.Close() })
	rc := client.New(ts.URL)
	ctx := context.Background()

	// Spec-carried label.
	spec := fig3Spec("spec-labelled")
	spec.Tenant = "acme/prod"
	v := mustCreate(t, rc, spec)
	if v.Tenant != "acme/prod" {
		t.Fatalf("spec tenant through router = %q, want acme/prod", v.Tenant)
	}

	// Header-carried label: raw POST, since the typed client has no headers.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions",
		strings.NewReader(`{"id":"hdr-labelled","workload":{"fig3":true},"mechanism":"rebudget-0.05"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.TenantHeader, "acme/dev")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("header create through router: status %d", resp.StatusCode)
	}
	hv, err := rc.GetSession(ctx, "hdr-labelled")
	if err != nil {
		t.Fatal(err)
	}
	if hv.Tenant != "acme/dev" {
		t.Fatalf("header tenant through router = %q, want acme/dev", hv.Tenant)
	}

	// The merged list view carries the labels too.
	views, err := rc.ListSessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, lv := range views {
		got[lv.ID] = lv.Tenant
	}
	if got["spec-labelled"] != "acme/prod" || got["hdr-labelled"] != "acme/dev" {
		t.Fatalf("routed list tenants: %v", got)
	}
}
