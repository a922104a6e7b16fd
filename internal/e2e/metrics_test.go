package e2e

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rebudget/internal/expo"
)

// TestCheckSelectors covers what the shell smokes' `name>=min` grammar could
// not say or got wrong: a two-label selector in either order, a histogram's
// _count series, and a metric whose name is a prefix of another's.
func TestCheckSelectors(t *testing.T) {
	ss, err := ParseMetrics(`# HELP x_requests_total By route and code.
# TYPE x_requests_total counter
x_requests_total{route="/v1/sessions",code="200"} 7
x_requests_total{route="/v1/sessions",code="429"} 2
x_requests_total{route="/healthz",code="200"} 1
x_sessions 3
x_sessions_live 5
x_seconds_bucket{le="0.5"} 4
x_seconds_bucket{le="+Inf"} 6
x_seconds_sum 1.25
x_seconds_count 6
`)
	if err != nil {
		t.Fatal(err)
	}
	pass := []Check{
		AtLeast("x_requests_total", 7, "route", "/v1/sessions", "code", "200"),
		AtLeast("x_requests_total", 7, "code", "200", "route", "/v1/sessions"),
		AtLeast("x_requests_total", 9, "route", "/v1/sessions"), // sums the two codes
		AtLeast("x_requests_total", 10),
		AtLeast("x_seconds_count", 6),
		AtLeast("x_sessions", 3),
		AtLeast("x_sessions_live", 5),
	}
	for _, c := range pass {
		if err := ss.Verify(c); err != nil {
			t.Errorf("%s: %v", c, err)
		}
	}
	fail := []Check{
		AtLeast("x_requests_total", 8, "route", "/v1/sessions", "code", "200"),
		AtLeast("x_requests_total", 0, "route", "/v1/sessions", "code", "500"), // no such series
		AtLeast("x_sessions", 4), // must not pick up x_sessions_live's 5
		AtLeast("x_seconds", 0),  // the family name alone is not a series
	}
	for _, c := range fail {
		if err := ss.Verify(c); err == nil {
			t.Errorf("%s passed, want failure", c)
		}
	}
	if got := pass[0].String(); got != `x_requests_total[code:200 route:/v1/sessions] >= 7` {
		t.Errorf("Check.String() = %s", got)
	}
}

func TestParseMetricsRejectsMalformed(t *testing.T) {
	for _, text := range []string{`x{a="1" 2`, `x{a=1} 2`, `x{a="1"}`, `x one`, `{a="1"} 2`} {
		if ss, err := ParseMetrics(text); err == nil {
			t.Errorf("ParseMetrics(%q) = %v, want error", text, ss)
		}
	}
}

// TestParseRoundTripsExpo renders every shape internal/expo can write —
// escaped label values, integer and float samples, both counter families
// and a histogram — and requires the parser to read the same series back.
func TestParseRoundTripsExpo(t *testing.T) {
	var lc expo.LabelCounters
	lc.Inc(`reason="idle"`)
	var rc expo.RouteCodeCounters
	rc.Inc("/v1/sessions/{id}/epoch", 200)
	rc.Inc("/v1/sessions/{id}/epoch", 200)
	var hist expo.Histogram
	hist.Observe(0.002)
	hist.Observe(7)

	var sb strings.Builder
	e := expo.Acquire(&sb)
	e.Gauge("x_up", "Up.", 1)
	e.Counter("x_epochs_total", "Epochs.", 1e6)
	e.Header("x_shard", "Per shard.", "gauge")
	e.Int("x_shard", 7, "shard", `http://a:1/"q"\`, "state", "open")
	e.Float("x_shard", 0.25, "shard", "b")
	e.Labelled("x_evicted_total", "By reason.", &lc)
	e.Labelled("x_requests_total", "By route and code.", &rc)
	e.Histogram("x_seconds", "Latency.", &hist)
	e.Release()

	got, err := ParseMetrics(sb.String())
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	want := Samples{
		{"x_up", nil, 1},
		{"x_epochs_total", nil, 1e6},
		{"x_shard", map[string]string{"shard": `http://a:1/"q"\`, "state": "open"}, 7},
		{"x_shard", map[string]string{"shard": "b"}, 0.25},
		{"x_evicted_total", map[string]string{"reason": "idle"}, 1},
		{"x_requests_total", map[string]string{"route": "/v1/sessions/{id}/epoch", "code": "200"}, 2},
	}
	for _, ub := range expo.LatencyBuckets {
		cum := 0.0
		if ub >= 0.002 {
			cum = 1
		}
		le := strconv.FormatFloat(ub, 'g', -1, 64)
		want = append(want, Sample{"x_seconds_bucket", map[string]string{"le": le}, cum})
	}
	want = append(want,
		Sample{"x_seconds_bucket", map[string]string{"le": "+Inf"}, 2},
		Sample{"x_seconds_sum", nil, 7.002},
		Sample{"x_seconds_count", nil, 2},
	)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v\n%s", got, want, sb.String())
	}
}

// TestAwaitPollsUntilTheChecksHold serves a counter that grows by one per
// scrape: Metrics sees it once, Await waits for it to climb, and a bound it
// never reaches fails the scenario with the last observation.
func TestAwaitPollsUntilTheChecksHold(t *testing.T) {
	var scrapes atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "# TYPE x_scrapes_total counter\nx_scrapes_total{path=%q} %d\n", r.URL.Path, scrapes.Add(1))
	}))
	defer ts.Close()
	h := &Harness{Ctx: context.Background(), dir: t.TempDir()}
	err := h.run(func(h *Harness) {
		h.Metrics(ts.URL, AtLeast("x_scrapes_total", 1, "path", "/metrics"))
		h.Await(ts.URL, 5*time.Second, time.Millisecond, AtLeast("x_scrapes_total", 4))
		h.Await(ts.URL, 20*time.Millisecond, time.Millisecond, AtLeast("x_scrapes_total", 1e9))
		t.Error("Await returned although its bound was never met")
	})
	if err == nil || !strings.Contains(err.Error(), "not within 20ms") || !strings.Contains(err.Error(), "x_scrapes_total") {
		t.Errorf("scenario error = %v", err)
	}
}
