// Command rebudget-loadgen drives a rebudgetd deployment (one daemon or a
// sharded tier behind rebudget-router) with a configurable mix of cheap and
// expensive allocation sessions, and reports epoch-latency percentiles,
// throughput, and 429 rate as JSON. It is the measurement harness behind
// cost-based admission: the cheap class's p99 under a saturating mixed
// fleet is the number that policy answers for.
//
// Usage (closed loop, 90/10 cheap/expensive, 30 s):
//
//	rebudget-loadgen -target http://127.0.0.1:8360 \
//	    -sessions 40 -cheap-frac 0.9 -concurrency 16 -duration 30s
//
// Open loop (Poisson arrivals at 200 epoch requests/sec):
//
//	rebudget-loadgen -mode open -rate 200 -arrival poisson ...
//
// Tenant mix (against a daemon running -tenants): label sessions across
// three archetypes — steady offers load continuously, bursty alternates
// 2s on/off, idle trickles — and get a per-tenant report section:
//
//	rebudget-loadgen -tenants web:steady:2,batch:bursty,spare:idle ...
//
// The cheap class is an 8-core equal-share market session (no equilibrium
// search — the floor of the cost scale). The expensive class defaults to a
// 64-core cold-start equilibrium mechanism: warm_start=false forces a full
// solve every epoch, the worst realistic per-epoch cost.
//
// Density mode (-resident N) is the 100k-session harness: create N resident
// sessions with bounded parallelism over pooled connections, then open-loop
// tick a rotating working set while most of the population sits idle (and,
// on a -park-after daemon, hibernates). The report carries create time,
// tick-latency percentiles and a timed /metrics scrape:
//
//	rebudget-loadgen -resident 100000 -rate 500 -working-set 2048 \
//	    -duration 60s -target http://127.0.0.1:8343
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rebudget/internal/server"
	"rebudget/internal/server/client"
)

type class struct {
	name string
	spec server.SessionSpec
	ids  []string
}

// tenantMix is one tenant in the -tenants flag: sessions are spread across
// tenants by weight, and each tenant's offered load follows its archetype —
// the traffic shapes the tenant budget economy trades between.
type tenantMix struct {
	name   string
	arch   string // steady | bursty | idle
	weight float64
}

// eligible reports whether this tenant offers load at elapsed run time t.
// steady always does; bursty alternates 2s on / 2s off; idle trickles one
// short active window (250ms) every 10s — enough to register demand without
// using its budget, so the economy lends it out.
func (tm tenantMix) eligible(t time.Duration) bool {
	switch tm.arch {
	case "bursty":
		return int(t/(2*time.Second))%2 == 0
	case "idle":
		return t%(10*time.Second) < 250*time.Millisecond
	default:
		return true
	}
}

// parseTenantMix parses "name:archetype[:weight],..." (e.g.
// "web:steady:2,batch:bursty,spare:idle").
func parseTenantMix(arg string) ([]tenantMix, error) {
	var out []tenantMix
	for _, item := range strings.Split(arg, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.Split(item, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("tenant %q: want name:archetype[:weight]", item)
		}
		tm := tenantMix{name: parts[0], arch: parts[1], weight: 1}
		switch tm.arch {
		case "steady", "bursty", "idle":
		default:
			return nil, fmt.Errorf("tenant %q: unknown archetype %q (want steady, bursty or idle)", tm.name, tm.arch)
		}
		if len(parts) == 3 {
			w, err := strconv.ParseFloat(parts[2], 64)
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("tenant %q: bad weight %q", tm.name, parts[2])
			}
			tm.weight = w
		}
		out = append(out, tm)
	}
	return out, nil
}

// classStats accumulates one class's outcomes. Latencies are recorded only
// for successful epoch requests: the A/B question is what service the
// admitted requests got, while rejections are reported separately as a rate.
type classStats struct {
	mu    sync.Mutex
	lat   []float64 // seconds, successes only
	ok    atomic.Int64
	busy  atomic.Int64 // 429s
	errs  atomic.Int64 // transport / 5xx / timeout
	total atomic.Int64
}

func (cs *classStats) record(d time.Duration, err error) {
	cs.total.Add(1)
	switch {
	case err == nil:
		cs.ok.Add(1)
		cs.mu.Lock()
		cs.lat = append(cs.lat, d.Seconds())
		cs.mu.Unlock()
	case client.IsBusy(err):
		cs.busy.Add(1)
	default:
		cs.errs.Add(1)
	}
}

// percentile returns the p-quantile (0..1) of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// ClassReport is one traffic class's slice of the run report.
type ClassReport struct {
	Sessions   int     `json:"sessions"`
	Requests   int64   `json:"requests"`
	OK         int64   `json:"ok"`
	Busy429    int64   `json:"busy_429"`
	Errors     int64   `json:"errors"`
	Rate429    float64 `json:"rate_429"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	P999Ms     float64 `json:"p999_ms"`
	MeanMs     float64 `json:"mean_ms"`
	Throughput float64 `json:"throughput_rps"`
}

// Report is the loadgen's JSON output, one object per run.
type Report struct {
	Label       string                 `json:"label"`
	Target      string                 `json:"target"`
	Mode        string                 `json:"mode"`
	Arrival     string                 `json:"arrival,omitempty"`
	RatePerSec  float64                `json:"rate_per_sec,omitempty"`
	Concurrency int                    `json:"concurrency,omitempty"`
	DurationSec float64                `json:"duration_sec"`
	Sessions    int                    `json:"sessions"`
	Requests    int64                  `json:"requests"`
	OK          int64                  `json:"ok"`
	Busy429     int64                  `json:"busy_429"`
	Errors      int64                  `json:"errors"`
	Rate429     float64                `json:"rate_429"`
	Throughput  float64                `json:"throughput_rps"`
	Classes     map[string]ClassReport `json:"classes"`
	// Tenants breaks the run down by tenant label when -tenants is set, so
	// per-tenant placement and backpressure can be asserted from the report
	// instead of scraping /metrics.
	Tenants map[string]ClassReport `json:"tenants,omitempty"`
	// Density-mode (-resident) fields.
	Resident     int     `json:"resident,omitempty"`
	WorkingSet   int     `json:"working_set,omitempty"`
	CreateSec    float64 `json:"create_sec,omitempty"`
	CreatePerSec float64 `json:"create_per_sec,omitempty"`
	ScrapeMs     float64 `json:"scrape_ms,omitempty"`
	ScrapeBytes  int64   `json:"scrape_bytes,omitempty"`
}

func main() {
	var (
		target      = flag.String("target", "http://127.0.0.1:8344", "rebudgetd or rebudget-router base URL")
		label       = flag.String("label", "run", "run label recorded in the JSON report")
		sessions    = flag.Int("sessions", 40, "sessions to create before the measured run")
		cheapFrac   = flag.Float64("cheap-frac", 0.9, "fraction of sessions in the cheap class")
		cheapCores  = flag.Int("cheap-cores", 8, "cheap-class bundle size")
		cheapMech   = flag.String("cheap-mech", "equalshare", "cheap-class mechanism")
		expCores    = flag.Int("expensive-cores", 64, "expensive-class bundle size")
		expMech     = flag.String("expensive-mech", "equalbudget", "expensive-class mechanism")
		expWarm     = flag.Bool("expensive-warm", false, "warm-start the expensive class (false = full cold solve per epoch)")
		expSim      = flag.Bool("expensive-sim", false, "run the expensive class on the cmpsim engine instead of the analytic market")
		mode        = flag.String("mode", "closed", "load model: closed (fixed concurrency) or open (timed arrivals)")
		concurrency = flag.Int("concurrency", 16, "closed loop: concurrent workers")
		rate        = flag.Float64("rate", 100, "open loop: mean epoch-request arrivals per second")
		arrival     = flag.String("arrival", "poisson", "open loop: arrival process, poisson or uniform")
		duration    = flag.Duration("duration", 30*time.Second, "measured run length")
		epochBatch  = flag.Int("epoch-batch", 1, "epochs stepped per request")
		prime       = flag.Int("prime", 1, "unmeasured epochs stepped per session, sequentially, before the run (0 disables)")
		timeout     = flag.Duration("timeout", 5*time.Second, "per-request deadline")
		seed        = flag.Int64("seed", 1, "mix/arrival RNG seed (runs are reproducible given a seed)")
		tenantsArg  = flag.String("tenants", "", "tenant mix: comma-separated name:archetype[:weight] (archetypes: steady, bursty, idle); labels sessions and shapes per-tenant load (empty disables)")
		out         = flag.String("out", "", "write the JSON report here (default stdout)")
		keep        = flag.Bool("keep-sessions", false, "leave sessions resident after the run")
		apiKey      = flag.String("api-key", "", "bearer token for daemons/routers running with -api-key (empty sends none)")

		resident       = flag.Int("resident", 0, "density mode: create this many resident sessions, then open-loop tick a rotating working set (0 = classic mix mode)")
		createParallel = flag.Int("create-parallel", 64, "density mode: concurrent session creations")
		workingSet     = flag.Int("working-set", 1024, "density mode: sessions in the actively-ticked window")
		rotateEvery    = flag.Duration("rotate-every", 5*time.Second, "density mode: slide the working-set window this often")
		residentCores  = flag.Int("resident-cores", 8, "density mode: bundle size per resident session")
		residentMech   = flag.String("resident-mech", "equalshare", "density mode: mechanism per resident session")
	)
	flag.Parse()

	if *cheapFrac < 0 || *cheapFrac > 1 {
		fatal("cheap-frac must be in [0,1]")
	}
	if *mode != "closed" && *mode != "open" {
		fatal("mode must be closed or open")
	}
	if *arrival != "poisson" && *arrival != "uniform" {
		fatal("arrival must be poisson or uniform")
	}
	tenants, err := parseTenantMix(*tenantsArg)
	if err != nil {
		fatal("%v", err)
	}

	// One pooled transport for everything: a 100k-session create burst at
	// -create-parallel 64 would otherwise open (and TIME_WAIT) a socket per
	// request. Pool depth tracks the create parallelism, which bounds the
	// harness's own concurrency in both modes.
	poolDepth := *createParallel
	if *concurrency > poolDepth {
		poolDepth = *concurrency
	}
	transport := &http.Transport{
		MaxIdleConns:        poolDepth * 2,
		MaxIdleConnsPerHost: poolDepth * 2,
		IdleConnTimeout:     90 * time.Second,
	}
	opts := []client.Option{
		client.WithHTTPClient(&http.Client{Transport: transport}),
		client.WithTimeout(*timeout),
	}
	if *apiKey != "" {
		opts = append(opts, client.WithAPIKey(*apiKey))
	}
	cl := client.New(*target, opts...)
	rng := rand.New(rand.NewSource(*seed))

	if *resident > 0 {
		runResident(cl, residentConfig{
			target:     *target,
			label:      *label,
			resident:   *resident,
			parallel:   *createParallel,
			workingSet: *workingSet,
			rotate:     *rotateEvery,
			cores:      *residentCores,
			mech:       *residentMech,
			rate:       *rate,
			duration:   *duration,
			seed:       *seed,
			keep:       *keep,
			out:        *out,
		})
		return
	}

	f := false
	tr := true
	cheap := &class{name: "cheap", spec: server.SessionSpec{
		Workload:  server.WorkloadSpec{Category: "CPBN", Cores: *cheapCores},
		Mechanism: *cheapMech,
	}}
	expensive := &class{name: "expensive", spec: server.SessionSpec{
		Workload:  server.WorkloadSpec{Category: "CPBN", Cores: *expCores},
		Mechanism: *expMech,
	}}
	if *expWarm {
		expensive.spec.WarmStart = &tr
	} else {
		expensive.spec.WarmStart = &f
	}
	if *expSim {
		expensive.spec.Mode = "sim"
		expensive.spec.Sim = &server.SimSpec{ReallocEvery: 1}
	}

	// Build the deterministic class assignment, then create the sessions.
	nCheap := int(math.Round(*cheapFrac * float64(*sessions)))
	assignment := make([]*class, 0, *sessions)
	for i := 0; i < *sessions; i++ {
		if i < nCheap {
			assignment = append(assignment, cheap)
		} else {
			assignment = append(assignment, expensive)
		}
	}
	rng.Shuffle(len(assignment), func(i, j int) {
		assignment[i], assignment[j] = assignment[j], assignment[i]
	})
	// Sessions are spread across the tenant mix by weight; the label rides
	// the spec, so placement is assertable from create/list responses.
	tenantOf := map[string]tenantMix{}
	var weightTotal float64
	for _, tm := range tenants {
		weightTotal += tm.weight
	}
	pickTenant := func() tenantMix {
		x := rng.Float64() * weightTotal
		for _, tm := range tenants {
			if x -= tm.weight; x < 0 {
				return tm
			}
		}
		return tenants[len(tenants)-1]
	}
	createCtx, cancelCreate := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancelCreate()
	for i, c := range assignment {
		spec := c.spec
		spec.ID = fmt.Sprintf("lg-%s-%04d", c.name[:1], i)
		spec.Workload.Seed = uint64(*seed)*1_000_003 + uint64(i)
		if len(tenants) > 0 {
			tm := pickTenant()
			spec.Tenant = tm.name
			tenantOf[spec.ID] = tm
		}
		view, err := createWithRetry(createCtx, cl, spec)
		if err != nil {
			fatal("create %s: %v", spec.ID, err)
		}
		if spec.Tenant != "" && view.Tenant != spec.Tenant {
			fatal("create %s: placed under tenant %q, want %q", spec.ID, view.Tenant, spec.Tenant)
		}
		c.ids = append(c.ids, view.ID)
	}
	// Prime each session with a few sequential, unmeasured epochs. This
	// seeds the daemon's per-session cost EWMAs with real measurements
	// (an unmeasured session is admitted on its analytic prior, which for
	// big bundles is deliberately pessimistic) and keeps cold-start
	// transients out of the measured window.
	if *prime > 0 {
		for _, c := range []*class{cheap, expensive} {
			for _, id := range c.ids {
				for i := 0; i < *prime; i++ {
					if _, err := cl.StepEpoch(createCtx, id); err != nil && !client.IsBusy(err) {
						fatal("prime %s: %v", id, err)
					}
				}
			}
		}
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d sessions created (%d cheap, %d expensive), running %s %s for %s\n",
		*sessions, len(cheap.ids), len(expensive.ids), *mode, "loop", *duration)

	// The measured run. pick() chooses a session uniformly from the mix so
	// offered load per class is proportional to the session mix.
	all := make([]struct {
		id string
		c  *class
	}, 0, *sessions)
	stats := map[*class]*classStats{cheap: {}, expensive: {}}
	for _, c := range []*class{cheap, expensive} {
		for _, id := range c.ids {
			all = append(all, struct {
				id string
				c  *class
			}{id, c})
		}
	}

	tstats := map[string]*classStats{}
	for _, tm := range tenants {
		tstats[tm.name] = &classStats{}
	}

	runCtx, cancelRun := context.WithTimeout(context.Background(), *duration)
	defer cancelRun()
	start := time.Now()
	var wg sync.WaitGroup
	hit := func(id string, c *class) {
		t0 := time.Now()
		var err error
		if *epochBatch == 1 {
			_, err = cl.StepEpoch(runCtx, id)
		} else {
			_, err = cl.StepEpochs(runCtx, id, *epochBatch)
		}
		if runCtx.Err() != nil && err != nil {
			return // shutdown race, not a measurement
		}
		d := time.Since(t0)
		stats[c].record(d, err)
		if ts := tstats[tenantOf[id].name]; ts != nil {
			ts.record(d, err)
		}
	}
	// offering reports whether the picked session's tenant is in an active
	// phase of its archetype; without a tenant mix everything always offers.
	offering := func(id string) bool {
		if len(tenants) == 0 {
			return true
		}
		return tenantOf[id].eligible(time.Since(start))
	}

	switch *mode {
	case "closed":
		for w := 0; w < *concurrency; w++ {
			wg.Add(1)
			// Per-worker RNG: no lock contention on the shared source.
			wrng := rand.New(rand.NewSource(*seed ^ int64(w*7919+1)))
			go func() {
				defer wg.Done()
				for runCtx.Err() == nil {
					pick := all[wrng.Intn(len(all))]
					if !offering(pick.id) {
						// Off-phase tenant: don't burn the worker slot on a
						// spin; everyone may be off-phase at once.
						time.Sleep(5 * time.Millisecond)
						continue
					}
					hit(pick.id, pick.c)
				}
			}()
		}
	case "open":
		wg.Add(1)
		go func() {
			defer wg.Done()
			mean := time.Duration(float64(time.Second) / *rate)
			for runCtx.Err() == nil {
				gap := mean
				if *arrival == "poisson" {
					gap = time.Duration(rng.ExpFloat64() * float64(mean))
				}
				select {
				case <-runCtx.Done():
					return
				case <-time.After(gap):
				}
				pick := all[rng.Intn(len(all))]
				if !offering(pick.id) {
					continue // the arrival fires, but this tenant is off-phase
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					hit(pick.id, pick.c)
				}()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	if !*keep {
		cleanCtx, cancelClean := context.WithTimeout(context.Background(), time.Minute)
		defer cancelClean()
		for _, e := range all {
			_ = cl.DeleteSession(cleanCtx, e.id)
		}
	}

	rep := Report{
		Label:       *label,
		Target:      *target,
		Mode:        *mode,
		Concurrency: *concurrency,
		DurationSec: elapsed.Seconds(),
		Sessions:    *sessions,
		Classes:     map[string]ClassReport{},
	}
	if *mode == "open" {
		rep.Arrival = *arrival
		rep.RatePerSec = *rate
	}
	for _, c := range []*class{cheap, expensive} {
		cr := reportFor(stats[c], len(c.ids), elapsed)
		rep.Classes[c.name] = cr
		rep.Requests += cr.Requests
		rep.OK += cr.OK
		rep.Busy429 += cr.Busy429
		rep.Errors += cr.Errors
	}
	if len(tenants) > 0 {
		perTenant := map[string]int{}
		for _, tm := range tenantOf {
			perTenant[tm.name]++
		}
		rep.Tenants = map[string]ClassReport{}
		for _, tm := range tenants {
			rep.Tenants[tm.name] = reportFor(tstats[tm.name], perTenant[tm.name], elapsed)
		}
	}
	rep.Throughput = float64(rep.OK) / elapsed.Seconds()
	if rep.Requests > 0 {
		rep.Rate429 = float64(rep.Busy429) / float64(rep.Requests)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal("encode report: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal("write %s: %v", *out, err)
	}
}

// reportFor folds one stats bucket (a traffic class or a tenant) into its
// report slice.
func reportFor(cs *classStats, sessions int, elapsed time.Duration) ClassReport {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	sort.Float64s(cs.lat)
	cr := ClassReport{
		Sessions:   sessions,
		Requests:   cs.total.Load(),
		OK:         cs.ok.Load(),
		Busy429:    cs.busy.Load(),
		Errors:     cs.errs.Load(),
		P50Ms:      percentile(cs.lat, 0.50) * 1000,
		P99Ms:      percentile(cs.lat, 0.99) * 1000,
		P999Ms:     percentile(cs.lat, 0.999) * 1000,
		Throughput: float64(cs.ok.Load()) / elapsed.Seconds(),
	}
	if n := len(cs.lat); n > 0 {
		sum := 0.0
		for _, v := range cs.lat {
			sum += v
		}
		cr.MeanMs = sum / float64(n) * 1000
	}
	if cr.Requests > 0 {
		cr.Rate429 = float64(cr.Busy429) / float64(cr.Requests)
	}
	return cr
}

// residentConfig parameterises one density-mode run.
type residentConfig struct {
	target     string
	label      string
	resident   int
	parallel   int
	workingSet int
	rotate     time.Duration
	cores      int
	mech       string
	rate       float64
	duration   time.Duration
	seed       int64
	keep       bool
	out        string
}

// runResident is density mode: flood-create rc.resident sessions with
// bounded parallelism, then tick an open loop over a working-set window
// that slides through the population every rc.rotate — the rest of the
// residents idle (and hibernate, on a -park-after daemon). Any create or
// tick error beyond 429 backpressure is fatal to the run's claim, so it is
// reported and exits nonzero.
func runResident(cl *client.Client, rc residentConfig) {
	if rc.workingSet > rc.resident {
		rc.workingSet = rc.resident
	}
	ids := make([]string, rc.resident)
	createCtx, cancelCreate := context.WithTimeout(context.Background(), 30*time.Minute)
	defer cancelCreate()

	fmt.Fprintf(os.Stderr, "loadgen: creating %d resident sessions (%d-way)\n", rc.resident, rc.parallel)
	createStart := time.Now()
	var createErrs atomic.Int64
	var wg sync.WaitGroup
	sem := make(chan struct{}, rc.parallel)
	for i := 0; i < rc.resident; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			spec := server.SessionSpec{
				ID:        fmt.Sprintf("dn-%06d", i),
				Workload:  server.WorkloadSpec{Category: "CPBN", Cores: rc.cores, Seed: uint64(rc.seed)*1_000_003 + uint64(i)},
				Mechanism: rc.mech,
			}
			view, err := createWithRetry(createCtx, cl, spec)
			if err != nil {
				if createErrs.Add(1) <= 5 {
					fmt.Fprintf(os.Stderr, "loadgen: create %s: %v\n", spec.ID, err)
				}
				return
			}
			ids[i] = view.ID
		}(i)
	}
	wg.Wait()
	createElapsed := time.Since(createStart)
	if n := createErrs.Load(); n > 0 {
		fatal("%d/%d creates failed", n, rc.resident)
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d residents in %s (%.0f/s), ticking %d-session window at %.0f/s for %s\n",
		rc.resident, createElapsed.Round(time.Millisecond), float64(rc.resident)/createElapsed.Seconds(),
		rc.workingSet, rc.rate, rc.duration)

	// Open-loop ticking over the sliding window. The window start advances
	// by one window every rc.rotate, wrapping over the population, so a long
	// run touches everyone while the instantaneous resident:active ratio
	// stays resident/workingSet.
	stats := &classStats{}
	runCtx, cancelRun := context.WithTimeout(context.Background(), rc.duration)
	defer cancelRun()
	rng := rand.New(rand.NewSource(rc.seed))
	start := time.Now()
	var tickWG sync.WaitGroup
	mean := time.Duration(float64(time.Second) / rc.rate)
	for runCtx.Err() == nil {
		gap := time.Duration(rng.ExpFloat64() * float64(mean))
		select {
		case <-runCtx.Done():
		case <-time.After(gap):
			window := int(time.Since(start)/rc.rotate) * rc.workingSet
			id := ids[(window+rng.Intn(rc.workingSet))%rc.resident]
			tickWG.Add(1)
			go func() {
				defer tickWG.Done()
				t0 := time.Now()
				_, err := cl.StepEpoch(runCtx, id)
				if runCtx.Err() != nil && err != nil {
					return // shutdown race, not a measurement
				}
				stats.record(time.Since(t0), err)
			}()
		}
	}
	tickWG.Wait()
	elapsed := time.Since(start)

	// A timed scrape is part of the density claim: /metrics must stay cheap
	// with the full population resident.
	scrapeStart := time.Now()
	body, err := cl.Metrics(context.Background())
	if err != nil {
		fatal("scrape /metrics: %v", err)
	}
	scrape := time.Since(scrapeStart)

	rep := Report{
		Label:        rc.label,
		Target:       rc.target,
		Mode:         "resident",
		RatePerSec:   rc.rate,
		DurationSec:  elapsed.Seconds(),
		Sessions:     rc.resident,
		Resident:     rc.resident,
		WorkingSet:   rc.workingSet,
		CreateSec:    createElapsed.Seconds(),
		CreatePerSec: float64(rc.resident) / createElapsed.Seconds(),
		ScrapeMs:     scrape.Seconds() * 1000,
		ScrapeBytes:  int64(len(body)),
		Classes:      map[string]ClassReport{},
	}
	cr := reportFor(stats, rc.resident, elapsed)
	rep.Classes["resident"] = cr
	rep.Requests, rep.OK, rep.Busy429, rep.Errors = cr.Requests, cr.OK, cr.Busy429, cr.Errors
	rep.Throughput = float64(rep.OK) / elapsed.Seconds()
	if rep.Requests > 0 {
		rep.Rate429 = float64(rep.Busy429) / float64(rep.Requests)
	}

	if !rc.keep {
		cleanCtx, cancelClean := context.WithTimeout(context.Background(), 10*time.Minute)
		defer cancelClean()
		for i := 0; i < rc.resident; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(id string) {
				defer wg.Done()
				defer func() { <-sem }()
				_ = cl.DeleteSession(cleanCtx, id)
			}(ids[i])
		}
		wg.Wait()
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal("encode report: %v", err)
	}
	enc = append(enc, '\n')
	if rc.out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(rc.out, enc, 0o644); err != nil {
		fatal("write %s: %v", rc.out, err)
	}
	if rep.Errors > 0 {
		fatal("%d tick errors during the measured run", rep.Errors)
	}
}

// createWithRetry rides out transient 429s during the setup burst: session
// creation also passes admission, and a saturated daemon may push back.
func createWithRetry(ctx context.Context, cl *client.Client, spec server.SessionSpec) (server.SessionView, error) {
	for {
		view, err := cl.CreateSession(ctx, spec)
		if err == nil || !client.IsBusy(err) {
			return view, err
		}
		wait := 100 * time.Millisecond
		if ae, ok := err.(*client.APIError); ok && ae.RetryAfter > 0 {
			wait = ae.RetryAfter
		}
		select {
		case <-ctx.Done():
			return server.SessionView{}, ctx.Err()
		case <-time.After(wait):
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rebudget-loadgen: "+format+"\n", args...)
	os.Exit(1)
}
