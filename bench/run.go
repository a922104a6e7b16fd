package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// instance is one set-up workload: inputs generated, tier booted, sessions
// created. The runner drives it; it verifies its own outputs.
type instance interface {
	// clients is the number of closed-loop client goroutines.
	clients() int
	// warmupOps is the untimed ops each client runs first; timed ops carry
	// on from that index.
	warmupOps() int
	// op performs and verifies client c's i-th op under the given root span.
	op(c, i, root int) error
	// begin marks the start of the timed phase (counter baselines).
	begin() error
	// layerCounts reports workload-derived per-layer counters since begin.
	layerCounts() map[string]float64
	// verify runs the checks that need the whole run; it returns failures.
	verify() []string
	// digest fingerprints results every run of this seed must reproduce.
	digest() string
	close()
}

// A run sets its workload up several times and reports the median: set-up is
// short, so one sample of it would gate on noise. At least minSetupReps, and
// then more — up to maxSetupReps — while they fit in a sixth of the run
// length, so the shortest, noisiest set-ups get the most samples.
const (
	minSetupReps = 3
	maxSetupReps = 9
)

const windows = 5

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is the (max−min)/median over the run's windows, where the
	// value is a median over windows.
	Spread *float64 `json:"window_spread,omitempty"`
	// N is the number of calls or ops behind the value, where it has one.
	N int `json:"n,omitempty"`
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"` // first few, verbatim
	Digest    string   `json:"result_digest"`
	// Tail is the highest percentile of op latency this run's sample
	// supports under the ten-samples-beyond rule.
	Tail      float64          `json:"highest_supported_percentile"`
	Metrics   map[string]value `json:"metrics"`
	SelfTimes []selfRow        `json:"self_times,omitempty"`
}

func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// opRec is one timed op, kept to eight bytes and stored in a slice sized
// before the phase starts: the daemons' live heap is a megabyte or two, so
// records that grew with the run pushed the collector's goal up as it went,
// and serve_light ran 20 % faster in its last window than in its first.
type opRec struct {
	startUS uint32 // µs since the phase began
	latNS   uint32 // ns, clamped below tracedBit; the top bit marks a recorded root span
}

const tracedBit = 1 << 31

func newOpRec(start, end time.Duration, traced bool) opRec {
	lat := uint32(min(end-start, tracedBit-1))
	if traced {
		lat |= tracedBit
	}
	return opRec{startUS: uint32(start / time.Microsecond), latNS: lat}
}

func (o opRec) lat() int64   { return int64(o.latNS &^ tracedBit) }
func (o opRec) end() int64   { return int64(o.startUS)*1000 + o.lat() }
func (o opRec) traced() bool { return o.latNS&tracedBit != 0 }

// opsPerClientSecond sizes the record slices: twice what the fastest
// workload's clients reach. Beyond it append grows them — correct, only
// less steady.
const opsPerClientSecond = 10000

// runPhase drives every client of inst in a closed loop — a client sends its
// next op only when the previous one has completed — for dur, starting at op
// index first, and records each client's ops in its slice of recs. A failed
// op is counted and the loop goes on, up to a point: a workload that fails
// over and over is broken, not slow.
func runPhase(inst instance, tr *tracer, first int, dur time.Duration, res *runResult, recs [][]opRec) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range recs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fails := 0
			for i := first; fails < 8; i++ {
				start := time.Since(t0)
				if start >= dur {
					break
				}
				root := tr.root()
				err := inst.op(c, i, root)
				tr.end(root)
				recs[c] = append(recs[c], newOpRec(start, time.Since(t0), root != 0))
				if err != nil {
					fails++
					mu.Lock()
					res.fail("op %d: %v", i, err)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
}

// byCompletion merges the clients' records in the order the ops ended.
func byCompletion(recs [][]opRec) []opRec {
	var all []opRec
	for _, r := range recs {
		all = append(all, r...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end() < all[j].end() })
	return all
}

// warmup runs each client's untimed ops.
func warmup(inst instance) error {
	errs := make(chan error, inst.clients())
	for c := 0; c < inst.clients(); c++ {
		go func(c int) {
			for i := 0; i < inst.warmupOps(); i++ {
				if err := inst.op(c, i, 0); err != nil {
					errs <- fmt.Errorf("warm-up op %d: %w", i, err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < inst.clients(); c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// setUp builds the workload several times, warm-up included — lazy
// initialisation a later change moves out of the timed phase lands here and
// shows — and keeps the last instance. It returns each repetition's time.
func setUp(w *workloadSpec, seed uint64, tr *tracer, budget time.Duration) (instance, []float64, error) {
	var times []float64
	began := time.Now()
	for {
		runtime.GC()
		start := time.Now()
		inst, err := w.new(seed, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if err := warmup(inst); err != nil {
			inst.close()
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		// Stop when the next repetition would not fit the budget.
		next := time.Since(began) + time.Since(start)
		if n := len(times); n >= maxSetupReps || (n >= minSetupReps && next > budget) {
			return inst, times, nil
		}
		inst.close()
	}
}

func msOf(ns int64) float64 { return float64(ns) / 1e6 }

// summarize turns the timed ops into the end-to-end metrics. Each value is
// taken over the whole phase: measured here, pooling every op spread less
// from run to run than a median over windows did, because the heterogeneous
// workloads need every sample they can get. The phase is still cut into
// equal-count windows in completion order, and how far the windows disagree,
// (max−min)/median, is printed beside each value: a disturbed run shows.
func summarize(ops []opRec, res *runResult) {
	if len(ops) == 0 {
		return
	}
	stats := func(win []opRec, from int64) (rate, v50, v90 float64) {
		lat := make([]float64, len(win))
		for i, o := range win {
			lat[i] = msOf(o.lat())
		}
		sort.Float64s(lat)
		v50, _ = percentile(lat, 50)
		v90, _ = percentile(lat, 90)
		return float64(len(win)) / (float64(win[len(win)-1].end()-from) / 1e9), v50, v90
	}
	b := splitWindows(len(ops), windows)
	var rates, w50, w90 []float64
	from := int64(0)
	for k := 0; k+1 < len(b); k++ {
		win := ops[b[k]:b[k+1]]
		r, v50, v90 := stats(win, from)
		from = win[len(win)-1].end()
		rates, w50, w90 = append(rates, r), append(w50, v50), append(w90, v90)
	}
	rate, v50, v90 := stats(ops, 0)
	put := func(name, unit string, v float64, perWindow []float64) {
		sp := windowSpread(perWindow)
		res.Metrics[name] = value{Value: v, Unit: unit, Spread: &sp, N: len(ops)}
	}
	put("ops_per_s", "1/s", rate, rates)
	put("op_p50_ms", "ms", v50, w50)
	put("op_p90_ms", "ms", v90, w90)
	res.Tail = highestSupported(len(ops), 50, 90, 99, 99.9)
}

// runWorkload is one run: set up, time a closed-loop phase, verify. The
// traced run keeps its timed phase to a quarter, alternates recording on and
// off in slices to price the recording itself, and hands the rest of its
// time to the layer ladder.
func runWorkload(w *workloadSpec, seed uint64, seconds float64, traced bool, outDir string) (*runResult, error) {
	res := &runResult{Workload: w.Name, Traced: traced, Seed: seed, Seconds: seconds, Metrics: make(map[string]value)}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	dur := time.Duration(seconds * float64(time.Second))
	inst, setups, err := setUp(w, seed, tr, dur/6)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	res.Metrics["setup_s"] = value{Value: median(setups), Unit: "s", N: len(setups)}
	if traced {
		dur /= 4
	}
	stopToggle := make(chan struct{})
	var toggled sync.WaitGroup
	if traced {
		toggled.Add(1)
		go func() { // recording on and off in turn, a tenth of the phase each
			defer toggled.Done()
			tick := time.NewTicker(dur / 10)
			defer tick.Stop()
			for on := false; ; on = !on {
				select {
				case <-stopToggle:
					return
				case <-tick.C:
					tr.enable(on)
				}
			}
		}()
	}
	recs := make([][]opRec, inst.clients())
	for c := range recs {
		recs[c] = make([]opRec, 0, int(dur.Seconds()*opsPerClientSecond)+1024)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := inst.begin(); err != nil {
		return nil, err
	}
	runPhase(inst, tr, inst.warmupOps(), dur, res, recs)
	runtime.ReadMemStats(&m1)
	ops := byCompletion(recs)
	close(stopToggle)
	toggled.Wait()
	counts := inst.layerCounts()

	res.Attempted = len(ops)
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no op completed in %s", w.Name, dur)
	}
	for _, f := range inst.verify() {
		res.fail("%s", f)
	}
	res.Digest = inst.digest()
	summarize(ops, res)
	res.Metrics["alloc_kb_per_op"] = value{Value: float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(len(ops)),
		Unit: "kB", N: len(ops)}

	if traced {
		tracedRun(res, tr, ops, counts, m1.NumGC-m0.NumGC)
		if err := tr.write(fmt.Sprintf("%s/trace_%s.json", outDir, w.Name)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tracedRun adds what only the traced run can report: the self-time table,
// the diagnostic tails, the daemons' counters over the phase, and the price
// of the recording itself.
func tracedRun(res *runResult, tr *tracer, ops []opRec, counts map[string]float64, gcs uint32) {
	res.SelfTimes = selfTimes(tr.spans)
	lat := make([]float64, len(ops))
	var on, off []float64
	for i, o := range ops {
		lat[i] = msOf(o.lat())
		if o.traced() {
			on = append(on, lat[i])
		} else {
			off = append(off, lat[i])
		}
	}
	sort.Float64s(lat)
	p99, _ := percentile(lat, 99)
	p999, _ := percentile(lat, 99.9)
	res.Metrics["client.op_p99_ms"] = value{Value: p99, Unit: "ms", N: len(lat)}
	res.Metrics["client.op_p999_ms"] = value{Value: p999, Unit: "ms", N: len(lat)}
	overhead := 0.0
	if len(on) > 0 && len(off) > 0 {
		overhead = mean(on)/mean(off) - 1
	}
	res.Metrics["bench.trace_overhead_share"] = value{Value: overhead, Unit: "share", N: len(on)}
	res.Metrics["proc.gc_cycles"] = value{Value: float64(gcs), Unit: "count"}
	for _, name := range []string{"server.eq_runs", "server.eq_rounds", "server.eq_wall_share",
		"server.rejected_429", "server.http_5xx", "server.snap_restores", "server.snap_corrupt",
		"router.failovers", "router.retries", "router.breaker_rejections"} {
		res.Metrics[name] = value{Value: counts[name], Unit: unitOf(name)} // 0 for a workload with no tier
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}
