package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// checkLine validates the results schema: the line carries exactly the
// metrics its kind owes, each a finite number with the declared unit.
func checkLine(t *testing.T, res *runResult, specs []metricSpec) {
	t.Helper()
	line := contractLine(res)
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", res.Workload, line.Correct, line.Attempted, line.Failed, res.Failures)
	}
	if len(line.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics on the line, want %d", res.Workload, len(line.Metrics), len(specs))
	}
	for _, m := range specs {
		v, ok := line.Metrics[m.Name]
		if !ok || v.Unit != m.Unit {
			t.Errorf("%s: metric %s missing or in %q, want %q", res.Workload, m.Name, v.Unit, m.Unit)
		}
		if _, measured := res.Metrics[m.Name]; !measured {
			t.Errorf("%s: the harness never measured %s", res.Workload, m.Name)
		}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf, &keys); err != nil || len(keys) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
}

// A 1 %-scale run of every workload: all outputs verify and the end-to-end
// line is complete.
func TestSmokeAllWorkloads(t *testing.T) {
	out := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		res, err := runWorkload(w, 7, 0.01*defaultSeconds, false, out)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkLine(t, res, endToEnd)
		if res.Metrics["setup_s"].Value <= 0 || res.Metrics["ops_per_s"].Value <= 0 || res.Digest == "" {
			t.Errorf("%s: setup_s %g, ops_per_s %g, digest %q", w.Name,
				res.Metrics["setup_s"].Value, res.Metrics["ops_per_s"].Value, res.Digest)
		}
	}
}

// The traced run of one tier workload plus the whole ladder: every per-layer
// name is measured, the span file is written, and the self times sum to the
// op total.
func TestSmokeTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("the ladder takes several seconds")
	}
	out := t.TempDir()
	w := findWorkload("serve_lifecycle")
	res, err := runWorkload(w, 7, 0.04*defaultSeconds, true, out)
	if err != nil {
		t.Fatal(err)
	}
	rungs, err := runLadder(0.01, out)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range rungs {
		res.Metrics[k] = v
	}
	checkLine(t, res, perLayer)
	if n := res.Metrics["server.snap_restores"].Value; n < 1 {
		t.Errorf("%g snapshot restores counted over the traced phase", n)
	}

	buf, err := os.ReadFile(filepath.Join(out, "trace_serve_lifecycle.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(buf, &spans); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]int)
	for _, s := range spans {
		names[s.Name]++
		if s.EndNS < s.StartNS {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	for _, want := range []string{"op", "client.create", "client.epoch", "client.evict", "client.get", "client.delete",
		"router.forward", "snapshot.save", "snapshot.load"} {
		if names[want] == 0 {
			t.Errorf("no %q span among %v", want, names)
		}
	}
	sum, ops := 0.0, 0.0
	for _, r := range res.SelfTimes {
		sum += r.SelfMS
		if r.Name == "op" {
			ops = r.TotalMS
		}
	}
	if ops == 0 || sum < ops*0.999 || sum > ops*1.001 {
		t.Errorf("self times sum to %g ms, op total is %g ms", sum, ops)
	}
	if left, _ := filepath.Glob(filepath.Join(out, "tmp-*")); len(left) != 0 {
		t.Errorf("the ladder left %v behind", left)
	}
}
