// Command rebudget-loadgen is the command line of internal/loadgen: it
// drives a rebudgetd deployment (one daemon or a sharded tier behind
// rebudget-router) with a mix of cheap and expensive allocation sessions and
// prints epoch-latency percentiles, throughput and 429 rate as JSON.
//
//	rebudget-loadgen -target http://127.0.0.1:8360 \
//	    -sessions 40 -cheap-frac 0.9 -concurrency 16 -duration 30s   # closed loop
//	rebudget-loadgen -mode open -rate 200 ...                        # Poisson arrivals
//	rebudget-loadgen -tenants web:steady:2,batch:bursty,spare:idle ...
//	rebudget-loadgen -resident 100000 -rate 500 -working-set 2048 \
//	    -duration 60s -target http://127.0.0.1:8343                  # density mode
//
// Density mode adds create time and a timed /metrics scrape to the report,
// and any tick error exits non-zero. Flags:
//
//	-target -label -api-key -seed -duration -keep-sessions -out
//	-sessions -cheap-frac -cheap-cores -cheap-mech -expensive-mech
//	-mode -concurrency -rate -prime -tenants
//	-resident -create-parallel -working-set
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"rebudget/internal/loadgen"
)

func main() {
	cfg := loadgen.Defaults()
	flag.StringVar(&cfg.Target, "target", cfg.Target, "rebudgetd or rebudget-router base URL")
	flag.StringVar(&cfg.Label, "label", cfg.Label, "run label recorded in the JSON report")
	flag.StringVar(&cfg.APIKey, "api-key", "", "bearer token for daemons/routers running with -api-key (empty sends none)")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "mix/arrival RNG seed (runs are reproducible given a seed)")
	flag.DurationVar(&cfg.Duration, "duration", cfg.Duration, "measured run length")
	flag.BoolVar(&cfg.KeepSessions, "keep-sessions", false, "leave sessions resident after the run")
	out := flag.String("out", "", "write the JSON report here (default stdout)")

	flag.IntVar(&cfg.Sessions, "sessions", cfg.Sessions, "sessions to create before the measured run")
	flag.Float64Var(&cfg.CheapFrac, "cheap-frac", cfg.CheapFrac, "fraction of sessions in the cheap class")
	flag.IntVar(&cfg.CheapCores, "cheap-cores", cfg.CheapCores, "cheap-class bundle size")
	flag.StringVar(&cfg.CheapMech, "cheap-mech", cfg.CheapMech, "cheap-class mechanism")
	flag.StringVar(&cfg.ExpensiveMech, "expensive-mech", cfg.ExpensiveMech, "expensive-class mechanism (64 cores, cold solve per epoch)")
	flag.StringVar(&cfg.Mode, "mode", cfg.Mode, "load model: closed (fixed concurrency) or open (Poisson arrivals)")
	flag.IntVar(&cfg.Concurrency, "concurrency", cfg.Concurrency, "closed loop: concurrent workers")
	flag.Float64Var(&cfg.Rate, "rate", cfg.Rate, "open loop and density mode: mean epoch-request arrivals per second")
	flag.IntVar(&cfg.Prime, "prime", cfg.Prime, "unmeasured epochs stepped per session, sequentially, before the run (0 disables)")
	flag.StringVar(&cfg.Tenants, "tenants", "", "tenant mix: comma-separated name:archetype[:weight] (archetypes: steady, bursty, idle); labels sessions and shapes per-tenant load (empty disables)")

	flag.IntVar(&cfg.Resident, "resident", 0, "density mode: create this many resident sessions, then open-loop tick a rotating working set (0 = mix mode)")
	flag.IntVar(&cfg.CreateParallel, "create-parallel", cfg.CreateParallel, "density mode: concurrent session creations")
	flag.IntVar(&cfg.WorkingSet, "working-set", cfg.WorkingSet, "density mode: sessions in the actively-ticked window")
	flag.Parse()
	cfg.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

	rep, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		fatal("%v", err)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal("encode report: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal("write %s: %v", *out, err)
	}
	// Density mode's claim is zero tick errors; fail loudly after reporting.
	if cfg.Resident > 0 && rep.Errors > 0 {
		fatal("%d tick errors during the measured run", rep.Errors)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rebudget-loadgen: "+format+"\n", args...)
	os.Exit(1)
}
