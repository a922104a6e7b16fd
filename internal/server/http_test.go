package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/expo"
	"rebudget/internal/snapshot"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newTestDaemon stands up a Server plus an httptest listener and tears both
// down with the test.
func newTestDaemon(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// doJSON issues a request and decodes the response body into out (if any).
func doJSON(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp
}

func TestDegradedSessionReportsStateThroughMetrics(t *testing.T) {
	// /metrics carries the by-state population gauge; one session's state
	// is in its view.
	_, ts := newTestDaemon(t, Config{})
	spec := api.SessionSpec{
		ID:        "faulty-chip",
		Mode:      api.ModeSim,
		Workload:  api.WorkloadSpec{Fig3: true},
		Mechanism: "rebudget-0.05",
		Sim: &api.SimSpec{
			WarmupEpochs: 1,
			// Poisoned utility evaluations make Allocate fail outright
			// (solver stalls alone are absorbed by the §6.4 Settle
			// fail-safe as non-converged successes).
			Faults: &api.FaultSpec{UtilityRate: 0.9, Seed: 11},
		},
	}
	var created api.SessionView
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions", spec, &created); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	// Step until the chip's FSM degrades (3 consecutive failed allocations
	// at a 90% per-evaluation poisoning rate — a handful of epochs).
	degraded := false
	for i := 0; i < 60 && !degraded; i++ {
		var v api.SessionView
		if resp := doJSON(t, "POST", ts.URL+"/v1/sessions/faulty-chip/epoch", nil, &v); resp.StatusCode != http.StatusOK {
			t.Fatalf("epoch %d: %d", i, resp.StatusCode)
		}
		degraded = v.Health == "degraded"
	}
	if !degraded {
		t.Fatal("session never degraded under a 90% utility-poisoning rate")
	}
	resp := doJSON(t, "GET", ts.URL+"/metrics", nil, nil)
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`rebudgetd_sessions_by_state{state="degraded"} 1`,
		`rebudgetd_sessions_live 1`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	var v api.SessionView
	if resp := doJSON(t, "GET", ts.URL+"/v1/sessions/faulty-chip", nil, &v); resp.StatusCode != http.StatusOK || v.Health != "degraded" {
		t.Fatalf("GET view: %d, health %q, want degraded", resp.StatusCode, v.Health)
	}
}

func TestEpochBackpressureReturns429(t *testing.T) {
	srv, ts := newTestDaemon(t, Config{RequestTimeout: 300 * time.Millisecond})
	// A queue that holds one waiter, in place before any request arrives.
	srv.disp = newDispatcher(1, 1, 0)
	spec := api.SessionSpec{ID: "bp", Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "equalbudget"}
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions", spec, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	// Occupy the whole dispatcher budget from the test so epoch requests
	// queue.
	blocker, ok := srv.disp.tryAcquire(srv.disp.capacity)
	if !ok {
		t.Fatal("could not claim the dispatcher capacity")
	}
	release := make(chan struct{})
	go func() {
		<-release
		blocker.release()
	}()
	defer close(release)

	// First request becomes the one allowed waiter...
	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sessions/bp/epoch", "application/json", nil)
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	deadline := time.After(2 * time.Second)
	for srv.disp.queued() == 0 {
		select {
		case <-deadline:
			t.Fatal("first epoch request never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// ...and the second is rejected immediately with 429 + Retry-After.
	resp := doJSON(t, "POST", ts.URL+"/v1/sessions/bp/epoch", nil, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expected 429, got %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	// The queued waiter times out against the request deadline (503).
	if code := <-firstDone; code != http.StatusServiceUnavailable {
		t.Fatalf("queued request: expected 503 after deadline, got %d", code)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	srv, ts := newTestDaemon(t, Config{})
	var h api.Healthz
	if resp := doJSON(t, "GET", ts.URL+"/healthz", nil, &h); resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, h.Status)
	}
	srv.StartDrain()
	var hd api.Healthz
	if resp := doJSON(t, "GET", ts.URL+"/healthz", nil, &hd); resp.StatusCode != http.StatusServiceUnavailable || hd.Status != "draining" {
		t.Fatalf("draining healthz: %d %q", resp.StatusCode, hd.Status)
	}
	spec := api.SessionSpec{Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "equalbudget"}
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions", spec, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: %d", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	tooManyApps := make([]string, maxCores+1)
	for i := range tooManyApps {
		tooManyApps[i] = "mcf"
	}
	cases := []struct {
		name string
		spec api.SessionSpec
	}{
		{"bad id", api.SessionSpec{ID: "no spaces!", Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "equalbudget"}},
		{"bad mode", api.SessionSpec{Mode: "quantum", Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "equalbudget"}},
		{"bad mechanism", api.SessionSpec{Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "lottery"}},
		{"no workload", api.SessionSpec{Mechanism: "equalbudget"}},
		{"rebudget without min_ef", api.SessionSpec{Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "rebudget"}},
		{"bad fault rate", api.SessionSpec{Mode: api.ModeSim, Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "equalbudget",
			Sim: &api.SimSpec{Faults: &api.FaultSpec{SolverRate: 1.5}}}},
		{"infinite rebudget step", api.SessionSpec{Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "rebudget-Inf"}},
		{"NaN rebudget step", api.SessionSpec{Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "rebudget-NaN"}},
		{"negative rebudget step", api.SessionSpec{Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "rebudget--5"}},
		{"zero rebudget step", api.SessionSpec{Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "rebudget-0"}},
		{"min_ef above Theorem 2", api.SessionSpec{Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "rebudget", MinEnvyFreeness: 0.9}},
		{"too many cores", api.SessionSpec{Workload: api.WorkloadSpec{Category: "CPBN", Cores: maxCores + 4}, Mechanism: "equalshare"}},
		{"too many apps", api.SessionSpec{Workload: api.WorkloadSpec{Apps: tooManyApps}, Mechanism: "equalshare"}},
	}
	for _, tc := range cases {
		if resp := doJSON(t, "POST", ts.URL+"/v1/sessions", tc.spec, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: expected 400, got %d", tc.name, resp.StatusCode)
		}
	}
	if resp := doJSON(t, "GET", ts.URL+"/v1/sessions/ghost", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing session: expected 404, got %d", resp.StatusCode)
	}
	if resp := doJSON(t, "DELETE", ts.URL+"/v1/sessions/ghost", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing delete: expected 404, got %d", resp.StatusCode)
	}
}

func TestDuplicateSessionConflicts(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	spec := api.SessionSpec{ID: "twin", Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "equalbudget"}
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions", spec, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions", spec, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate: expected 409, got %d", resp.StatusCode)
	}
}

func TestTelemetryValidation(t *testing.T) {
	_, ts := newTestDaemon(t, Config{})
	spec := api.SessionSpec{ID: "tele", Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "equalbudget"}
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions", spec, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	// Context switches are sim-only.
	bad := api.TelemetrySpec{Switches: []api.SwitchSpec{{Core: 0, App: "mcf"}}}
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions/tele/telemetry", bad, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("switches on market session: expected 400, got %d", resp.StatusCode)
	}
	// Out-of-range player.
	bad = api.TelemetrySpec{Players: []api.PlayerTelemetry{{Player: 99, Demand: 2}}}
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions/tele/telemetry", bad, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad player index: expected 400, got %d", resp.StatusCode)
	}
	// A weight the budget cannot hold.
	bad = api.TelemetrySpec{Players: []api.PlayerTelemetry{{Player: 0, Weight: 1e307}}}
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions/tele/telemetry", bad, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overflowing weight: expected 400, got %d", resp.StatusCode)
	}
	// Result is sim-only.
	if resp := doJSON(t, "GET", ts.URL+"/v1/sessions/tele/result", nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("result on market session: expected 400, got %d", resp.StatusCode)
	}
}

// TestOverflowingWeightRejected: weight × core.InitialBudget = +Inf makes
// every later solve fail, which core.Resilient would paper over with the
// last-known-good outcome forever. Neither way in — telemetry, a restored
// snapshot — may install one.
func TestOverflowingWeightRejected(t *testing.T) {
	spec := api.SessionSpec{Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "rebudget-20"}
	bundle, err := buildBundle(spec.Workload)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *marketEngine {
		e, err := newMarketEngine(spec, bundle, nil)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := build()
	tele := api.TelemetrySpec{Players: []api.PlayerTelemetry{{Player: 0, Weight: 1e307}}}
	if err := e.telemetry(tele); err == nil {
		t.Error("telemetry accepted a weight that overflows the budget")
	}
	if w := e.players[0].BudgetWeight; w == 1e307 {
		t.Errorf("rejected weight was installed: %g", w)
	}

	var snap snapshot.Session
	e.snapshot(&snap)
	if err := build().restore(&snap); err != nil {
		t.Fatalf("clean snapshot: %v", err)
	}
	snap.Market.Weights[0] = 1e307
	if err := build().restore(&snap); err == nil {
		t.Error("restore accepted a weight that overflows the budget")
	}
}

func TestRouteLabelBoundsCardinality(t *testing.T) {
	cases := map[string]string{
		"/healthz":                  "/healthz",
		"/metrics":                  "/metrics",
		"/v1/sessions":              "/v1/sessions",
		"/v1/sessions/abc":          "/v1/sessions/{id}",
		"/v1/sessions/abc/epoch":    "/v1/sessions/{id}/epoch",
		"/v1/sessions/x-1/result":   "/v1/sessions/{id}/result",
		"/v1/sessions/q/telemetry":  "/v1/sessions/{id}/telemetry",
		"/favicon.ico":              "other",
		"/gossip":                   "/gossip", // the router's two constant routes: 404 here,
		"/admin/shards":             "/admin",  // but still a bounded label
		"/v2/things/whatever/else3": "other",
	}
	for path, want := range cases {
		if got := expo.RouteLabel(path); got != want {
			t.Errorf("RouteLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestLRUEvictionOverHTTP(t *testing.T) {
	_, ts := newTestDaemon(t, Config{MaxSessions: 2})
	for i := 0; i < 3; i++ {
		spec := api.SessionSpec{ID: fmt.Sprintf("lru-%d", i),
			Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "equalbudget"}
		if resp := doJSON(t, "POST", ts.URL+"/v1/sessions", spec, nil); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: %d", i, resp.StatusCode)
		}
	}
	// lru-0 was least recently used and must be gone; a request answers 404.
	if resp := doJSON(t, "GET", ts.URL+"/v1/sessions/lru-0", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session still served: %d", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", ts.URL+"/v1/sessions/lru-2", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh session missing: %d", resp.StatusCode)
	}
}

// TestAPIKeyAuth: with an API key armed, mutating endpoints demand the
// bearer token while reads, probes and scrapes stay open for probes and
// Prometheus.
func TestAPIKeyAuth(t *testing.T) {
	_, ts := newTestDaemon(t, Config{APIKey: "s3kr1t"})
	spec := api.SessionSpec{ID: "guarded", Workload: api.WorkloadSpec{Fig3: true}, Mechanism: "equalshare"}

	do := func(method, path, auth string, body any) int {
		t.Helper()
		var rd io.Reader
		if body != nil {
			buf, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(buf)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// No key, wrong key, malformed scheme: all 401 on mutations.
	for _, auth := range []string{"", "Bearer wrong", "Basic s3kr1t", "s3kr1t"} {
		if code := do("POST", "/v1/sessions", auth, spec); code != http.StatusUnauthorized {
			t.Fatalf("create with auth %q: %d, want 401", auth, code)
		}
	}
	if code := do("POST", "/v1/sessions", "Bearer s3kr1t", spec); code != http.StatusCreated {
		t.Fatalf("create with key: %d, want 201", code)
	}
	if code := do("POST", "/v1/sessions/guarded/epoch", "", nil); code != http.StatusUnauthorized {
		t.Fatalf("epoch without key: %d, want 401", code)
	}
	if code := do("DELETE", "/v1/sessions/guarded", "", nil); code != http.StatusUnauthorized {
		t.Fatalf("delete without key: %d, want 401", code)
	}

	// Reads and operational surfaces stay open.
	for _, path := range []string{"/v1/sessions/guarded", "/v1/sessions", "/healthz", "/metrics"} {
		if code := do("GET", path, "", nil); code != http.StatusOK {
			t.Fatalf("GET %s without key: %d, want 200", path, code)
		}
	}

	// Auth misses are counted.
	resp := doJSON(t, "GET", ts.URL+"/metrics", nil, nil)
	buf, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(buf), `reason="auth"`) {
		t.Fatal("/metrics missing auth rejection counter")
	}

	// The daemon client speaks the scheme end to end.
	if code := do("POST", "/v1/sessions/guarded/epoch", "Bearer s3kr1t", nil); code != http.StatusOK {
		t.Fatalf("epoch with key: %d, want 200", code)
	}
}
