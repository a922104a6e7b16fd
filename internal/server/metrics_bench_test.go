package server

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// scrapeFixture builds n loop-less sessions with warmed cost estimators —
// enough state for every series the exposition renders.
func scrapeFixture(n int) []*session {
	sessions := make([]*session, n)
	now := time.Now()
	for i := range sessions {
		est := newCostEstimator(4)
		est.observe(1, 40+i%200, 0)
		est.update(1)
		sessions[i] = &session{
			id:       fmt.Sprintf("scrape-%06d", i),
			cost:     est,
			lastUsed: now,
			reqs:     make(chan *request, 1),
			met:      &srvMetrics{},
		}
	}
	return sessions
}

// BenchmarkMetricsRender50k is the 50k-resident scrape: the default
// exposition must stay cheap and bounded no matter the population, because
// the cost profile is a fixed histogram + top-K, not a per-id series.
func BenchmarkMetricsRender50k(b *testing.B) {
	m := &srvMetrics{}
	disp := newDispatcher(8, 64, 512)
	sessions := scrapeFixture(50000)
	// "default" is the name the recorded BENCH_*.json snapshots carry.
	b.Run("default", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.render(io.Discard, sessions, disp, nil, false, time.Minute)
		}
	})
}

// TestDefaultMetricsBoundedCardinality pins the cardinality diet: the
// exposition carries NO per-session-id series — the cost profile is a
// histogram plus a top-K whose size is fixed.
func TestDefaultMetricsBoundedCardinality(t *testing.T) {
	m := &srvMetrics{}
	disp := newDispatcher(8, 64, 512)
	sessions := scrapeFixture(500)

	var sb strings.Builder
	m.render(&sb, sessions, disp, nil, false, time.Minute)
	out := sb.String()
	for _, banned := range []string{
		"rebudgetd_session_epochs{",
		"rebudgetd_session_health{",
		"rebudgetd_session_epoch_cost_per_id{",
		"rebudgetd_session_tokens{",
		`id="`,
	} {
		if strings.Contains(out, banned) {
			t.Errorf("default exposition leaks per-id series %q", banned)
		}
	}
	for _, want := range []string{
		"rebudgetd_session_epoch_cost_bucket{le=",
		"rebudgetd_session_epoch_cost_sum",
		"rebudgetd_session_epoch_cost_count 500",
		`rebudgetd_session_cost_topk{rank="1"`,
		`rebudgetd_session_cost_topk{rank="5"`,
		"rebudgetd_sessions_parked 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("default exposition missing %q", want)
		}
	}
	// The line count must not scale with the population.
	base := strings.Count(out, "\n")
	sb.Reset()
	m.render(&sb, scrapeFixture(5000), disp, nil, false, time.Minute)
	if grown := strings.Count(sb.String(), "\n"); grown != base {
		t.Errorf("default exposition grew with population: %d lines at 500 sessions, %d at 5000", base, grown)
	}
}
