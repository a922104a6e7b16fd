package router

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/expo"
	"rebudget/internal/server"
)

// observe records one routed request, as the router's handler does.
func (m *rtrMetrics) observe(route string, code int, dur time.Duration) {
	m.requests.Observe(route, code, dur)
}

// TestServingShellContract holds rebudgetd's and the router's handlers to
// the one HTTP shell they share: every JSON reply carries Content-Type and
// a true Content-Length, every refusal decodes as api.Error, a bad bearer
// token is a 401 on both, and every request moves that daemon's request
// counter and latency histogram.
func TestServingShellContract(t *testing.T) {
	sh := newShard(t, server.Config{APIKey: "shard-key"})
	rt, err := New(Config{Backends: []string{sh.ts.URL}, ProbeInterval: time.Hour, Logger: discardLog(),
		BackendAPIKey: "shard-key", AdminToken: "admin-token"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	type call struct {
		method, path, auth, body string
		code                     int
	}
	daemons := []struct {
		family string
		h      http.Handler
		calls  []call
	}{
		{"rebudgetd", sh.srv.Handler(), []call{
			{"GET", "/healthz", "", "", 200},
			{"POST", "/v1/sessions", "Bearer shard-key", `{"id":"c1","workload":{"fig3":true},"mechanism":"equalshare"}`, 201},
			{"GET", "/v1/sessions", "", "", 200},
			{"POST", "/v1/sessions/c1/epoch", "Bearer shard-key", "", 200},
			{"GET", "/v1/sessions/ghost", "", "", 404},
			{"POST", "/v1/sessions", "Bearer shard-key", `{"mechanism":`, 400},
			{"POST", "/v1/sessions/c1/epoch", "Bearer wrong-key", "", 401},
		}},
		{"rebudget_router", rt.Handler(), []call{
			{"GET", "/healthz", "", "", 200},
			{"GET", "/v1/sessions", "", "", 200},
			{"GET", "/admin/membership", "Bearer admin-token", "", 200},
			{"POST", "/v1/sessions", "", `{"mechanism":`, 400},
			{"GET", "/admin/membership", "Bearer wrong-token", "", 401},
			{"POST", "/gossip", "Bearer wrong-token", "{}", 401},
		}},
	}
	for _, d := range daemons {
		for _, c := range d.calls {
			name := d.family + " " + c.method + " " + c.path
			route := expo.RouteLabel(c.path)
			counter := d.family + `_requests_total{route="` + route + `",code="` + strconv.Itoa(c.code) + `"}`
			histogram := d.family + "_request_seconds_count"
			before := scrape(t, d.h)

			req := httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
			if c.auth != "" {
				req.Header.Set("Authorization", c.auth)
			}
			rec := httptest.NewRecorder()
			d.h.ServeHTTP(rec, req)
			if rec.Code != c.code {
				t.Errorf("%s: %d %s, want %d", name, rec.Code, rec.Body, c.code)
				continue
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s: Content-Type %q", name, ct)
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
				t.Errorf("%s: Content-Length %q for a %d-byte body", name, cl, rec.Body.Len())
			}
			if c.code >= 400 {
				var e api.Error
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
					t.Errorf("%s: refusal %q is not an api.Error (%v)", name, rec.Body, err)
				}
			}

			// The scrape before this call is counted after it rendered, so
			// the histogram moves by two and the call's own series by one.
			after := scrape(t, d.h)
			if got := after[counter] - before[counter]; got != 1 {
				t.Errorf("%s: %s moved by %d, want 1", name, counter, got)
			}
			if got := after[histogram] - before[histogram]; got != 2 {
				t.Errorf("%s: %s moved by %d, want 2", name, histogram, got)
			}
		}
	}
}

// scrape reads h's /metrics into series → value.
func scrape(t *testing.T, h http.Handler) map[string]int64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := map[string]int64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		series, v, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(series, "#") {
			continue
		}
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			out[series] = n
		}
	}
	return out
}
