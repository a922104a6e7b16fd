// Package loadgen drives a rebudgetd deployment (one daemon or a sharded
// tier behind rebudget-router) with a mix of cheap and expensive allocation
// sessions and reports epoch-latency percentiles, throughput and 429 rate.
// It is the measurement core behind cost-based admission — the cheap
// class's p99 under a saturating mixed fleet is the number that policy
// answers for — shared by cmd/rebudget-loadgen and the rebudget-smoke
// scenarios, which call Run in-process and assert on the Report's fields.
//
// The cheap class is an 8-core equal-share market session by default (no
// equilibrium search — the floor of the cost scale). The expensive class is
// a 64-core bundle with warm_start=false: a full cold solve every epoch,
// the worst realistic per-epoch cost.
//
// Density mode (Config.Resident > 0) creates that many resident sessions
// with bounded parallelism over pooled connections, then open-loop ticks a
// rotating working set while most of the population sits idle (and, on a
// -park-after daemon, hibernates).
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/server/client"
)

const (
	expensiveCores = 64
	// Every resident of density mode is an 8-core equal-share market session.
	residentCores = 8
	residentMech  = "equalshare"
	rotateEvery   = 5 * time.Second // density mode: the working-set window slides this often
	// requestTimeout is the per-request deadline; a slower answer is an error.
	requestTimeout = 5 * time.Second
)

// Config parameterises one run. Defaults returns the command's defaults;
// zero values are not defaults (Prime 0 and CheapFrac 0 are meaningful).
type Config struct {
	Target string // rebudgetd or rebudget-router base URL
	Label  string // run label recorded in the report
	APIKey string // bearer token for daemons running with -api-key (empty sends none)
	Seed   int64  // mix and arrival RNG seed: a run is reproducible given a seed

	Duration     time.Duration // measured run length
	KeepSessions bool          // leave sessions resident after the run

	// Mix mode.
	Sessions      int     // sessions created before the measured run
	CheapFrac     float64 // fraction of sessions in the cheap class, in [0,1]
	CheapCores    int     // cheap-class bundle size
	CheapMech     string  // cheap-class mechanism
	ExpensiveMech string  // expensive-class mechanism
	Mode          string  // "closed" (fixed concurrency) or "open" (Poisson arrivals)
	Concurrency   int     // closed loop: concurrent workers
	Rate          float64 // open loop and density mode: mean epoch arrivals per second
	Prime         int     // unmeasured sequential epochs per session before the run
	// Tenants is a tenant mix, "name:archetype[:weight],…" with archetypes
	// steady (continuous load), bursty (2s on/off) and idle (a trickle):
	// sessions are labelled across the tenants by weight and the report gains
	// a per-tenant section. Empty disables.
	Tenants string

	// Density mode, selected by Resident > 0.
	Resident       int // resident sessions to create
	CreateParallel int // concurrent session creations
	WorkingSet     int // sessions in the actively-ticked window

	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Defaults is the configuration cmd/rebudget-loadgen starts from.
func Defaults() Config {
	return Config{
		Target: "http://127.0.0.1:8344", Label: "run", Seed: 1, Duration: 30 * time.Second,
		Sessions: 40, CheapFrac: 0.9, CheapCores: 8, CheapMech: "equalshare", ExpensiveMech: "equalbudget",
		Mode: "closed", Concurrency: 16, Rate: 100, Prime: 1,
		CreateParallel: 64, WorkingSet: 1024,
	}
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// ClassReport is one traffic class's (or tenant's) slice of the run report.
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

// Report is one run's result; cmd/rebudget-loadgen prints it as JSON.
type Report struct {
	Label       string                 `json:"label"`
	Target      string                 `json:"target"`
	Mode        string                 `json:"mode"`
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
	// Tenants breaks the run down by tenant label when a tenant mix is set,
	// so per-tenant placement and backpressure can be asserted from the
	// report instead of scraping /metrics.
	Tenants map[string]ClassReport `json:"tenants,omitempty"`
	// Density-mode fields.
	Resident     int     `json:"resident,omitempty"`
	WorkingSet   int     `json:"working_set,omitempty"`
	CreateSec    float64 `json:"create_sec,omitempty"`
	CreatePerSec float64 `json:"create_per_sec,omitempty"`
	ScrapeMs     float64 `json:"scrape_ms,omitempty"`
	ScrapeBytes  int64   `json:"scrape_bytes,omitempty"`
}

// Run executes one load run against cfg.Target and returns its report. The
// error covers what makes the run itself meaningless — bad configuration, a
// session that could not be created or was placed under the wrong tenant, a
// failed scrape; request failures inside the measured window are counted in
// Report.Errors for the caller to judge.
func Run(ctx context.Context, cfg Config) (Report, error) {
	if cfg.CheapFrac < 0 || cfg.CheapFrac > 1 {
		return Report{}, errors.New("cheap-frac must be in [0,1]")
	}
	if cfg.Mode != "closed" && cfg.Mode != "open" {
		return Report{}, errors.New("mode must be closed or open")
	}
	tenants, err := parseTenantMix(cfg.Tenants)
	if err != nil {
		return Report{}, err
	}

	// One pooled transport for everything: a 100k-session create burst
	// would otherwise open (and TIME_WAIT) a socket per request. Pool depth
	// tracks the harness's own concurrency in both modes.
	poolDepth := max(cfg.CreateParallel, cfg.Concurrency)
	transport := &http.Transport{
		MaxIdleConns:        poolDepth * 2,
		MaxIdleConnsPerHost: poolDepth * 2,
		IdleConnTimeout:     90 * time.Second,
	}
	defer transport.CloseIdleConnections()
	opts := []client.Option{
		client.WithHTTPClient(&http.Client{Transport: transport}),
		client.WithTimeout(requestTimeout),
	}
	if cfg.APIKey != "" {
		opts = append(opts, client.WithAPIKey(cfg.APIKey))
	}
	cl := client.New(cfg.Target, opts...)

	// The two modes differ in who the sessions are, how many are created at
	// once, whether they are primed, and which of them the loop may pick.
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := drive{cfg: cfg, cl: cl, rng: rng, stats: map[string]*classStats{}, tstats: map[string]*classStats{}}
	parallel, density := 1, cfg.Resident > 0
	if density {
		d.pop, d.mode, parallel = residents(cfg), "resident", cfg.CreateParallel
		d.window, d.cfg.Prime = min(cfg.WorkingSet, len(d.pop)), 0
		cfg.logf("loadgen: creating %d resident sessions (%d-way)", len(d.pop), parallel)
	} else {
		d.pop, d.mode = buildMix(cfg, tenants, rng), cfg.Mode
		d.window = len(d.pop)
		d.stats["cheap"], d.stats["expensive"] = &classStats{}, &classStats{}
	}
	switch {
	case d.window < 1 || parallel < 1:
		return Report{}, errors.New("sessions (or resident, working-set and create-parallel) must be at least 1")
	case d.mode != "closed" && cfg.Rate <= 0:
		return Report{}, errors.New("rate must be positive")
	}
	for _, tm := range tenants {
		d.tstats[tm.name] = &classStats{}
	}
	for _, m := range d.pop {
		if d.stats[m.class] == nil {
			d.stats[m.class] = &classStats{}
		}
		d.stats[m.class].sessions++
		if ts := d.tstats[m.tenant.name]; ts != nil {
			ts.sessions++
		}
	}

	// Create the population; any failed create voids the run.
	setupCtx, cancelSetup := context.WithTimeout(ctx, 30*time.Minute)
	defer cancelSetup()
	createStart := time.Now()
	var createErrs atomic.Int64
	inParallel(d.pop, parallel, func(m member) {
		view, err := createWithRetry(setupCtx, cl, m.spec)
		if err == nil && view.Tenant != m.spec.Tenant && m.spec.Tenant != "" {
			err = fmt.Errorf("placed under tenant %q, want %q", view.Tenant, m.spec.Tenant)
		}
		if err != nil && createErrs.Add(1) <= 5 {
			cfg.logf("loadgen: create %s: %v", m.spec.ID, err)
		}
	})
	createSec := time.Since(createStart).Seconds()
	if n := createErrs.Load(); n > 0 {
		return Report{}, fmt.Errorf("%d/%d creates failed", n, len(d.pop))
	}
	// Prime each mix session with sequential, unmeasured epochs. This seeds
	// the daemon's per-session cost EWMAs with real measurements (an
	// unmeasured session is admitted on its analytic prior, which for big
	// bundles is deliberately pessimistic) and keeps cold-start transients
	// out of the measured window.
	for _, m := range d.pop {
		for i := 0; i < d.cfg.Prime; i++ {
			if _, err := cl.StepEpoch(setupCtx, m.spec.ID); err != nil && !client.IsBusy(err) {
				return Report{}, fmt.Errorf("prime %s: %w", m.spec.ID, err)
			}
		}
	}
	cfg.logf("loadgen: %d sessions in %.3gs (%.0f/s), running %s loop for %s",
		len(d.pop), createSec, float64(len(d.pop))/createSec, d.mode, cfg.Duration)

	rep := d.run(ctx)
	if density {
		// A timed scrape is part of the density claim: /metrics must stay
		// cheap with the full population resident.
		scrapeStart := time.Now()
		body, err := cl.Metrics(ctx)
		if err != nil {
			return Report{}, fmt.Errorf("scrape /metrics: %w", err)
		}
		rep.ScrapeMs, rep.ScrapeBytes = time.Since(scrapeStart).Seconds()*1000, int64(len(body))
		rep.Resident, rep.WorkingSet = len(d.pop), d.window
		rep.CreateSec, rep.CreatePerSec = createSec, float64(len(d.pop))/createSec
	}
	if !cfg.KeepSessions {
		cleanCtx, cancelClean := context.WithTimeout(ctx, 10*time.Minute)
		defer cancelClean()
		inParallel(d.pop, parallel, func(m member) {
			_ = cl.DeleteSession(cleanCtx, m.spec.ID) // best effort: the report is what the run is for
		})
	}
	return rep, nil
}

// drive is the measured window of one run.
type drive struct {
	cfg  Config
	cl   *client.Client
	rng  *rand.Rand
	mode string   // closed | open | resident (open-loop over a sliding window)
	pop  []member // created and primed
	// window is how many consecutive sessions are pickable at once. Density
	// mode slides it by one window every rotateEvery, wrapping over the
	// population, so a long run touches everyone while the instantaneous
	// resident:active ratio stays resident/window; the mix modes' window is
	// the whole population.
	window        int
	stats, tstats map[string]*classStats // by traffic class, by tenant
}

// run offers load for cfg.Duration — sessions picked uniformly from the
// window, so offered load per class follows the session mix — and folds the
// outcomes into the report.
func (d *drive) run(ctx context.Context) Report {
	runCtx, cancelRun := context.WithTimeout(ctx, d.cfg.Duration)
	defer cancelRun()
	start := time.Now()
	hit := func(m member) {
		t0 := time.Now()
		_, err := d.cl.StepEpoch(runCtx, m.spec.ID)
		if runCtx.Err() != nil && err != nil {
			return // shutdown race, not a measurement
		}
		took := time.Since(t0)
		d.stats[m.class].record(took, err)
		if ts := d.tstats[m.tenant.name]; ts != nil {
			ts.record(took, err)
		}
	}
	// pick draws a session whose tenant is in an active phase of its
	// archetype; ok is false when the draw landed on an off-phase tenant.
	pick := func(rng *rand.Rand) (m member, ok bool) {
		slide := int(time.Since(start)/rotateEvery) * d.window
		m = d.pop[(slide+rng.Intn(d.window))%len(d.pop)]
		return m, m.tenant.eligible(time.Since(start))
	}
	var wg sync.WaitGroup
	if d.mode == "closed" {
		for w := 0; w < d.cfg.Concurrency; w++ {
			wg.Add(1)
			// Per-worker RNG: no lock contention on the shared source.
			wrng := rand.New(rand.NewSource(d.cfg.Seed ^ int64(w*7919+1)))
			go func() {
				defer wg.Done()
				for runCtx.Err() == nil {
					if m, ok := pick(wrng); ok {
						hit(m)
					} else {
						// Don't burn the worker slot on a spin: every
						// tenant may be off-phase at once.
						time.Sleep(5 * time.Millisecond)
					}
				}
			}()
		}
	} else {
		mean := time.Duration(float64(time.Second) / d.cfg.Rate)
		for runCtx.Err() == nil {
			select {
			case <-runCtx.Done():
			case <-time.After(arrivalGap(d.rng, mean)):
				// The arrival fires even when its tenant is off-phase.
				if m, ok := pick(d.rng); ok {
					wg.Add(1)
					go func() {
						defer wg.Done()
						hit(m)
					}()
				}
			}
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := Report{
		Label:       d.cfg.Label,
		Target:      d.cfg.Target,
		Mode:        d.mode,
		DurationSec: elapsed.Seconds(),
		Sessions:    len(d.pop),
		Classes:     map[string]ClassReport{},
	}
	if d.mode == "closed" {
		rep.Concurrency = d.cfg.Concurrency
	} else {
		rep.RatePerSec = d.cfg.Rate
	}
	for name, cs := range d.stats {
		cr := cs.report(elapsed)
		rep.Classes[name] = cr
		rep.Requests += cr.Requests
		rep.OK += cr.OK
		rep.Busy429 += cr.Busy429
		rep.Errors += cr.Errors
	}
	rep.Throughput = float64(rep.OK) / elapsed.Seconds()
	if rep.Requests > 0 {
		rep.Rate429 = float64(rep.Busy429) / float64(rep.Requests)
	}
	if len(d.tstats) > 0 {
		rep.Tenants = map[string]ClassReport{}
		for name, ts := range d.tstats {
			rep.Tenants[name] = ts.report(elapsed)
		}
	}
	return rep
}

// inParallel calls fn on every member, in order, with at most parallel
// calls in flight, and returns when all are done.
func inParallel(pop []member, parallel int, fn func(member)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallel)
	for _, m := range pop {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			fn(m)
		}()
	}
	wg.Wait()
}

// tenantMix is one tenant of Config.Tenants: sessions are spread across
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

// member is one session of the mix: its class, the spec it is created from
// and, under a tenant mix, the tenant it is labelled with.
type member struct {
	class  string // "cheap" or "expensive"
	spec   api.SessionSpec
	tenant tenantMix
}

// buildMix draws the session population from rng: round(CheapFrac·Sessions)
// cheap sessions shuffled among the expensive ones, each given a tenant by
// weight. The same seed yields the same population.
func buildMix(cfg Config, tenants []tenantMix, rng *rand.Rand) []member {
	cold := false
	cheap := api.SessionSpec{
		Workload:  api.WorkloadSpec{Category: "CPBN", Cores: cfg.CheapCores},
		Mechanism: cfg.CheapMech,
	}
	expensive := api.SessionSpec{
		Workload:  api.WorkloadSpec{Category: "CPBN", Cores: expensiveCores},
		Mechanism: cfg.ExpensiveMech,
		WarmStart: &cold,
	}
	nCheap := int(math.Round(cfg.CheapFrac * float64(cfg.Sessions)))
	mix := make([]member, cfg.Sessions)
	for i := range mix {
		if i < nCheap {
			mix[i] = member{class: "cheap", spec: cheap}
		} else {
			mix[i] = member{class: "expensive", spec: expensive}
		}
	}
	rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })

	var weightTotal float64
	for _, tm := range tenants {
		weightTotal += tm.weight
	}
	for i := range mix {
		m := &mix[i]
		m.spec.ID = fmt.Sprintf("lg-%s-%04d", m.class[:1], i)
		m.spec.Workload.Seed = uint64(cfg.Seed)*1_000_003 + uint64(i)
		if len(tenants) == 0 {
			continue
		}
		m.tenant = tenants[len(tenants)-1]
		x := rng.Float64() * weightTotal
		for _, tm := range tenants {
			if x -= tm.weight; x < 0 {
				m.tenant = tm
				break
			}
		}
		m.spec.Tenant = m.tenant.name
	}
	return mix
}

// residents is density mode's population: cfg.Resident identical small
// sessions, dn-000000 upward.
func residents(cfg Config) []member {
	pop := make([]member, cfg.Resident)
	for i := range pop {
		pop[i] = member{class: "resident", spec: api.SessionSpec{
			ID:        fmt.Sprintf("dn-%06d", i),
			Workload:  api.WorkloadSpec{Category: "CPBN", Cores: residentCores, Seed: uint64(cfg.Seed)*1_000_003 + uint64(i)},
			Mechanism: residentMech,
		}}
	}
	return pop
}

// arrivalGap draws the next open-loop inter-arrival time: exponential with
// the given mean, i.e. Poisson arrivals.
func arrivalGap(rng *rand.Rand, mean time.Duration) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

// classStats accumulates one bucket's — a traffic class's or a tenant's —
// outcomes. Latencies are recorded only for successful epoch requests: the
// question is what service the admitted requests got, while rejections are
// reported separately as a rate.
type classStats struct {
	sessions int // members of the bucket; fixed before the run

	mu             sync.Mutex
	lat            []float64 // seconds, successes only
	ok, busy, errs int64     // 200s, 429s, transport / 5xx / timeout
}

func (cs *classStats) record(d time.Duration, err error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	switch {
	case err == nil:
		cs.ok++
		cs.lat = append(cs.lat, d.Seconds())
	case client.IsBusy(err):
		cs.busy++
	default:
		cs.errs++
	}
}

// report folds the bucket into its report slice, once the run is over.
func (cs *classStats) report(elapsed time.Duration) ClassReport {
	sort.Float64s(cs.lat)
	cr := ClassReport{
		Sessions:   cs.sessions,
		Requests:   cs.ok + cs.busy + cs.errs,
		OK:         cs.ok,
		Busy429:    cs.busy,
		Errors:     cs.errs,
		P50Ms:      percentile(cs.lat, 0.50) * 1000,
		P99Ms:      percentile(cs.lat, 0.99) * 1000,
		P999Ms:     percentile(cs.lat, 0.999) * 1000,
		Throughput: float64(cs.ok) / elapsed.Seconds(),
	}
	for _, v := range cs.lat {
		cr.MeanMs += v * 1000 / float64(len(cs.lat))
	}
	if cr.Requests > 0 {
		cr.Rate429 = float64(cr.Busy429) / float64(cr.Requests)
	}
	return cr
}

// percentile returns the nearest-rank p-quantile (0..1) of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

// createWithRetry rides out transient 429s during the setup burst: session
// creation also passes admission, and a saturated daemon may push back.
func createWithRetry(ctx context.Context, cl *client.Client, spec api.SessionSpec) (api.SessionView, error) {
	for {
		view, err := cl.CreateSession(ctx, spec)
		if err == nil || !client.IsBusy(err) {
			return view, err
		}
		wait := 100 * time.Millisecond
		var ae *client.APIError
		if errors.As(err, &ae) && ae.RetryAfter > 0 {
			wait = ae.RetryAfter
		}
		select {
		case <-ctx.Done():
			return api.SessionView{}, ctx.Err()
		case <-time.After(wait):
		}
	}
}
