package main

import "testing"

const scrapeBefore = `# HELP rebudgetd_up Whether the daemon is serving.
# TYPE rebudgetd_up gauge
rebudgetd_up 1
rebudgetd_equilibrium_runs_total 12
rebudgetd_equilibrium_wall_seconds_total 0.25
rebudgetd_requests_total{route="epoch",code="200"} 40
rebudgetd_requests_total{route="create",code="201"} 2
rebudgetd_snapshots_total{op="save"} 3
`

const scrapeAfter = `# HELP rebudgetd_up Whether the daemon is serving.
rebudgetd_up 1
rebudgetd_equilibrium_runs_total 30
rebudgetd_equilibrium_wall_seconds_total 1.5e+00
rebudgetd_requests_total{route="epoch",code="200"} 100
rebudgetd_requests_total{route="epoch",code="429"} 4
rebudgetd_requests_total{route="epoch",code="503"} 1
rebudgetd_requests_total{route="create",code="201"} 2
rebudgetd_snapshots_total{op="save"} 5
rebudgetd_snapshots_total{op="restore"} 2
rebudgetd_request_seconds_bucket{le="+Inf"} 107
this line is not a sample
`

func TestPromDelta(t *testing.T) {
	before, after := parseProm(scrapeBefore), parseProm(scrapeAfter)
	if len(before) != 6 {
		t.Fatalf("parsed %d series before, want 6: %v", len(before), before)
	}
	d := after.delta(before)
	for _, tc := range []struct {
		metric string
		labels []string
		want   float64
	}{
		{"rebudgetd_equilibrium_runs_total", nil, 18},
		{"rebudgetd_equilibrium_wall_seconds_total", nil, 1.25},
		{"rebudgetd_requests_total", nil, 65},
		{"rebudgetd_requests_total", []string{`route="epoch"`}, 65},
		{"rebudgetd_requests_total", []string{`code="429"`}, 4}, // absent before: counts from zero
		{"rebudgetd_requests_total", []string{`code="5`}, 1},    // any 5xx
		{"rebudgetd_requests_total", []string{`route="epoch"`, `code="200"`}, 60},
		{"rebudgetd_snapshots_total", []string{`op="restore"`}, 2},
		{"rebudgetd_snapshots_total", []string{`op="corrupt"`}, 0},
		{"rebudgetd_requests", nil, 0}, // a prefix of a name is not the name
	} {
		if got := d.sum(tc.metric, tc.labels...); got != tc.want {
			t.Errorf("delta %s%v = %g, want %g", tc.metric, tc.labels, got, tc.want)
		}
	}
	both := make(promSample)
	both.add(before)
	both.add(after)
	if got := both.sum("rebudgetd_equilibrium_runs_total"); got != 42 {
		t.Errorf("two shards summed = %g, want 42", got)
	}
}
