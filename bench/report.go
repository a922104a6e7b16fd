package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// contractResult is the one JSON object a single-workload run ends with.
type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine keeps exactly the metrics the run's kind owes: every
// end-to-end metric untraced, every per-layer metric traced.
func contractLine(res *runResult) contractResult {
	specs := endToEnd
	if res.Traced {
		specs = perLayer
	}
	out := contractResult{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]contractValue, len(specs))}
	for _, m := range specs {
		v, ok := res.Metrics[m.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			out.Correct = false // a metric the harness failed to measure is a broken run
			v.Value = 0
		}
		out.Metrics[m.Name] = contractValue{Value: v.Value, Unit: m.Unit}
	}
	return out
}

// unresolved names the ratios that mean nothing on one processor: both
// sides ran the same serial code, and a flat 1.0 would read as a finding.
func unresolved(name string) bool {
	return runtime.GOMAXPROCS(0) == 1 &&
		(name == "market.parallel_speedup64" || name == "experiments.fig5_parallel_speedup")
}

func printValue(w io.Writer, name string, v value) {
	num := strconv.FormatFloat(v.Value, 'g', 6, 64)
	if unresolved(name) {
		num = "unresolved"
	}
	fmt.Fprintf(w, "  %-34s %12s %-6s", name, num, v.Unit)
	if v.Spread != nil {
		fmt.Fprintf(w, " window spread %4.1f%%", 100**v.Spread)
	}
	if v.N > 0 {
		fmt.Fprintf(w, " n=%d", v.N)
	}
	fmt.Fprintln(w)
}

// printRun prints every metric of a run by name, with its unit.
func printRun(w io.Writer, res *runResult) {
	kind := "untraced"
	if res.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s (%s) seed %d, %.3g s: %d ops, %d failed, digest %s, p%g is the highest percentile the sample supports\n",
		res.Workload, kind, res.Seed, res.Seconds, res.Attempted, res.Failed, res.Digest, res.Tail)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, m := range endToEnd {
		if v, ok := res.Metrics[m.Name]; ok {
			printValue(w, m.Name, v)
		}
	}
	share := value{Value: float64(res.Failed) / float64(res.Attempted), Unit: "share", N: res.Attempted}
	printValue(w, "failed_share", share)
	if !res.Traced {
		return
	}
	for _, m := range perLayer {
		if v, ok := res.Metrics[m.Name]; ok {
			printValue(w, m.Name, v)
		}
	}
	fmt.Fprintf(w, "  self time per span name (self times sum to the op total):\n")
	fmt.Fprintf(w, "  %-28s %8s %12s %12s %12s\n", "span", "count", "total ms", "self ms", "self p50 us")
	sum, ops := 0.0, 0.0
	for _, r := range res.SelfTimes {
		fmt.Fprintf(w, "  %-28s %8d %12.2f %12.2f %12.1f\n", r.Name, r.Count, r.TotalMS, r.SelfMS, r.SelfP50US)
		sum += r.SelfMS
		if r.Name == "op" {
			ops = r.TotalMS
		}
	}
	fmt.Fprintf(w, "  %-28s %8s %12.2f %12.2f\n", "sum of self / op total", "", ops, sum)
}

// --- the suite: every workload, both ways, in child processes ---

// stamp records where and on what a set of results was measured.
type stamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	// Scale is seconds over the default run length; the ladder's call
	// counts are multiplied by it.
	Scale float64 `json:"scale"`
	Time  string  `json:"time"`
}

func newStamp(seed uint64, seconds float64) stamp {
	s := stamp{Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown", Seed: seed, Seconds: seconds,
		Scale: seconds / defaultSeconds, Time: time.Now().UTC().Format(time.RFC3339)}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return s
}

// runPair is one workload measured both ways; suiteSet is one pass over
// every workload.
type runPair struct {
	Untraced *runResult `json:"untraced"`
	Traced   *runResult `json:"traced"`
}

type suiteSet map[string]runPair

type results struct {
	Stamp stamp      `json:"stamp"`
	Sets  []suiteSet `json:"sets"`
}

// child re-executes this binary for one run and reads back its run file.
func child(w string, seed uint64, seconds float64, traced bool, outDir string) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t, "-out", outDir)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run() // a run with failed ops exits 1 after writing its file
	buf, err := os.ReadFile(runFile(outDir, w, traced))
	if err != nil {
		return nil, fmt.Errorf("%s: %v (%v)", w, runErr, err)
	}
	var res runResult
	if err := json.Unmarshal(buf, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// disagreement is one end-to-end metric whose values across the repeated
// sets lie further apart than its bound.
type disagreement struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Spread   float64   `json:"spread"` // (max−min)/median
	Bound    float64   `json:"bound"`
	Agrees   bool      `json:"agrees"`
}

func agreement(sets []suiteSet) (rows []disagreement, ok bool) {
	ok = true
	for _, w := range workloads {
		for _, m := range endToEnd {
			var vals []float64
			for _, set := range sets {
				vals = append(vals, set[w.Name].Untraced.Metrics[m.Name].Value)
			}
			sp := windowSpread(vals)
			row := disagreement{Workload: w.Name, Metric: m.Name, Values: vals, Spread: sp, Bound: m.Bound,
				Agrees: sp <= m.Bound}
			ok = ok && row.Agrees
			rows = append(rows, row)
		}
	}
	return rows, ok
}

func runSuite(seed uint64, seconds float64, repeat int, outDir string) int {
	all := results{Stamp: newStamp(seed, seconds)}
	code := 0
	for r := 0; r < repeat; r++ {
		set := make(suiteSet)
		for _, w := range workloads {
			var pair [2]*runResult
			for i, traced := range []bool{false, true} {
				// Clear the file first so a child that dies cannot pass off
				// the previous run's.
				_ = os.Remove(runFile(outDir, w.Name, traced))
				res, err := child(w.Name, seed, seconds, traced, outDir)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				if res.Failed > 0 {
					code = 1
				}
				pair[i] = res
			}
			if pair[0].Digest != pair[1].Digest {
				fmt.Fprintf(os.Stderr, "bench: %s: traced digest %s differs from untraced %s\n", w.Name, pair[1].Digest, pair[0].Digest)
				code = 1
			}
			// The gap between the two runs, beside the traced run's own figure.
			gap := 1 - pair[1].Metrics["ops_per_s"].Value/pair[0].Metrics["ops_per_s"].Value
			fmt.Printf("  %s: traced run %.1f%% slower than untraced\n", w.Name, 100*gap)
			set[w.Name] = runPair{Untraced: pair[0], Traced: pair[1]}
		}
		all.Sets = append(all.Sets, set)
	}
	if err := writeJSON(filepath.Join(outDir, "results.json"), all); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if repeat > 1 {
		rows, ok := agreement(all.Sets)
		if err := writeJSON(filepath.Join(outDir, "agreement.json"), rows); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		var buf bytes.Buffer
		for _, row := range rows {
			if !row.Agrees {
				fmt.Fprintf(&buf, "  %s %s: sets spread %.1f%%, bound %.0f%%\n", row.Workload, row.Metric, 100*row.Spread, 100*row.Bound)
			}
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: repeated sets disagree beyond the bounds:\n%s", buf.String())
			code = 1
		}
	}
	return code
}
