package expo

import (
	"strings"
	"testing"
)

// TestWriterFormat pins what the router's byte-for-byte golden does not
// reach: escaped label values, float samples with labels, and a
// LabelCounters family rendered sorted.
func TestWriterFormat(t *testing.T) {
	var lc LabelCounters
	lc.Inc(`reason="idle"`)
	lc.Inc(`reason="busy"`)
	lc.Inc(`reason="idle"`)

	var sb strings.Builder
	e := Acquire(&sb)
	e.Header("x_shard", "Per shard.", "gauge")
	e.Int("x_shard", 7, "shard", `http://a:1/"q"`, "state", "open")
	e.Float("x_shard", 1e6, "shard", "b")
	e.Labelled("x_evicted_total", "By reason.", &lc)
	e.Release()

	want := `# HELP x_shard Per shard.
# TYPE x_shard gauge
x_shard{shard="http://a:1/\"q\"",state="open"} 7
x_shard{shard="b"} 1e+06
# HELP x_evicted_total By reason.
# TYPE x_evicted_total counter
x_evicted_total{reason="busy"} 1
x_evicted_total{reason="idle"} 2
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got\n%s--- want\n%s", got, want)
	}
}
