// Command bench is the repository's benchmark: five workloads that load
// different layers, five gated end-to-end metrics (plus the failure count),
// a per-layer ladder, and a traced run whose spans are recorded from outside
// the program, around the calls into each layer. See README.md.
//
// It is a module of its own so that it builds without touching the tree's
// build files; run it from the repository root through run.sh:
//
//	bash bench/run.sh                                  # the whole suite
//	bash bench/run.sh -repeat 2                        # twice, and compare
//	bash bench/run.sh -workload sweep64 -seed 7 -seconds 15 -trace 0
//
// With -workload it runs that one workload in this process and ends its
// output with one JSON object: {"correct","attempted","failed","metrics"}.
// -trace 0 reports the end-to-end metrics, -trace 1 the per-layer ones.
// Without -workload it runs every workload both ways, each in a fresh child
// process so heap state cannot leak from one to the next.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload in this process (default: the whole suite)")
		seed    = flag.Uint64("seed", 1, "workload input seed")
		seconds = flag.Float64("seconds", defaultSeconds, "length of one run's timed phase")
		trace   = flag.Int("trace", 0, "with -workload: 1 records spans and reports the per-layer metrics")
		repeat  = flag.Int("repeat", 1, "suite only: run the suite this many times and check the sets agree")
		outDir  = flag.String("out", "", "output directory (default bench/out from the repository root)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed N] [-seconds S] [-trace 0|1] [-repeat K] [-out dir]")
		os.Exit(2)
	}
	if *outDir == "" {
		*outDir = "out"
		if st, err := os.Stat("bench"); err == nil && st.IsDir() {
			*outDir = filepath.Join("bench", "out")
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *name == "" {
		os.Exit(runSuite(*seed, *seconds, *repeat, *outDir))
	}
	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	res, err := runWorkload(w, *seed, *seconds, *trace == 1, *outDir)
	if err != nil {
		fatal(err)
	}
	if res.Traced {
		rungs, err := runLadder(*seconds/defaultSeconds, *outDir)
		if err != nil {
			fatal(err)
		}
		for k, v := range rungs {
			res.Metrics[k] = v
		}
	}
	if err := writeJSON(runFile(*outDir, w.Name, res.Traced), res); err != nil {
		fatal(err)
	}
	printRun(os.Stdout, res)
	line, err := json.Marshal(contractLine(res))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if res.Failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func runFile(outDir, workload string, traced bool) string {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	return filepath.Join(outDir, fmt.Sprintf("run_%s_%s.json", workload, kind))
}
