package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The names in BENCHMARK.json and the names the harness emits are one set.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(buf, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", f.Paths)
	}
	if len(f.EndToEnd) > 16 || len(f.PerLayer) > 128 || len(f.Workloads) < 2 || len(f.Workloads) > 8 {
		t.Errorf("%d end-to-end, %d per-layer, %d workloads: outside the contract's limits",
			len(f.EndToEnd), len(f.PerLayer), len(f.Workloads))
	}

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the harness", len(f.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	for i, w := range f.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: file has %q (%q), harness %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: bad or repeated name, or a why of %d characters", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}

	compare := func(kind string, file []fileMetric, specs []metricSpec, bounded bool) {
		if len(file) != len(specs) {
			t.Fatalf("%s: %d metrics in the file, %d in the harness", kind, len(file), len(specs))
		}
		for i, m := range file {
			s := specs[i]
			if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
				t.Errorf("%s %d: file has %s [%s, %s], harness %s [%s, %s]", kind, i, m.Name, m.Unit, m.Better, s.Name, s.Unit, s.Better)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s %q [%q]: bad or repeated name, or bad unit", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %q: better is %q", kind, m.Name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != s.Bound || s.Bound <= 0 || s.Bound > 0.25):
				t.Errorf("%s %q: bound %v in the file, %g in the harness (must be in (0, 0.25])", kind, m.Name, m.Bound, s.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %q carries a bound", kind, m.Name)
			}
			if unitOf(m.Name) != m.Unit {
				t.Errorf("unitOf(%q) = %q, want %q", m.Name, unitOf(m.Name), m.Unit)
			}
		}
	}
	compare("end_to_end", f.EndToEnd, endToEnd, true)
	compare("per_layer", f.PerLayer, perLayer, false)

	// Set-up time is the noisiest gated number and carries the widest bound.
	for _, m := range endToEnd {
		if m.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a wider bound (%g) than setup_s (%g)", m.Name, m.Bound, endToEnd[0].Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", endToEnd[0])
	}
}
