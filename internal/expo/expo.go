// Package expo is the serving tier's observability: the Prometheus text
// exposition format (a pooled line writer, the counter types the hot paths
// increment, a fixed-bucket latency histogram and the bounded route label)
// and the one request-instrumenting wrapper that feeds it. rebudgetd,
// rebudget-router and rebudget-snapstore keep their own series definitions
// and render through it. No client library — the repo takes no
// dependencies — but the output is scrape-compatible.
package expo

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Writer assembles exposition lines with strconv.Append* into one buffered
// writer plus a number-format scratch buffer, both reused across scrapes —
// at a 50k-session scrape the per-line fmt.Fprintf it replaced was the
// dominant cost (one format-parse and several interface allocations per
// line).
type Writer struct {
	w   *bufio.Writer
	num []byte
}

var pool = sync.Pool{New: func() any {
	return &Writer{w: bufio.NewWriterSize(io.Discard, 32<<10), num: make([]byte, 0, 64)}
}}

// Acquire returns a pooled Writer over w; the caller must Release it.
func Acquire(w io.Writer) *Writer {
	e := pool.Get().(*Writer)
	e.w.Reset(w)
	return e
}

// Release flushes the Writer and returns it to the pool. The flush error is
// dropped: the only reader is a scraper that hung up, and the next scrape
// starts from scratch.
func (e *Writer) Release() {
	_ = e.w.Flush()
	e.w.Reset(io.Discard) // drop the handler's writer reference
	pool.Put(e)
}

// fmtFloat appends v's shortest representation. %g and AppendFloat('g', -1)
// agree, so the text is byte-identical to a Fprintf("%g") renderer's.
func fmtFloat(dst []byte, v float64) []byte { return strconv.AppendFloat(dst, v, 'g', -1, 64) }

func (e *Writer) int(v int64)     { e.num = strconv.AppendInt(e.num[:0], v, 10); e.w.Write(e.num) }
func (e *Writer) float(v float64) { e.num = fmtFloat(e.num[:0], v); e.w.Write(e.num) }
func (e *Writer) str(parts ...string) {
	for _, s := range parts {
		e.w.WriteString(s)
	}
}

// series writes `name{k="v",...} ` from key/value pairs; values are quoted
// like %q.
func (e *Writer) series(name string, kv []string) {
	e.str(name)
	for i := 0; i+1 < len(kv); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		e.str(sep, kv[i], "=")
		e.num = strconv.AppendQuote(e.num[:0], kv[i+1])
		e.w.Write(e.num)
	}
	if len(kv) > 1 {
		e.str("}")
	}
	e.str(" ")
}

// Header writes the # HELP / # TYPE preamble for a metric.
func (e *Writer) Header(name, help, typ string) {
	e.str("# HELP ", name, " ", help, "\n# TYPE ", name, " ", typ, "\n")
}

// Int writes one integer sample, labelled by the key/value pairs in kv.
func (e *Writer) Int(name string, v int64, kv ...string) {
	e.series(name, kv)
	e.int(v)
	e.str("\n")
}

// Float writes one float sample, labelled by the key/value pairs in kv.
func (e *Writer) Float(name string, v float64, kv ...string) {
	e.series(name, kv)
	e.float(v)
	e.str("\n")
}

// Gauge writes a complete unlabelled gauge: preamble and sample.
func (e *Writer) Gauge(name, help string, v float64) {
	e.Header(name, help, "gauge")
	e.Float(name, v)
}

// Counter writes a complete unlabelled counter: preamble and sample.
func (e *Writer) Counter(name, help string, v float64) {
	e.Header(name, help, "counter")
	e.Float(name, v)
}

// Labelled writes a counter family from a LabelCounters or
// RouteCodeCounters: one sample per label, sorted.
func (e *Writer) Labelled(name, help string, fam interface{ Snapshot() ([]string, []int64) }) {
	e.Header(name, help, "counter")
	labels, counts := fam.Snapshot()
	for i, l := range labels {
		e.str(name, "{", l, "} ")
		e.int(counts[i])
		e.str("\n")
	}
}

// Buckets writes a histogram's sample lines: one cumulative _bucket per
// bound, the +Inf bucket, _sum and _count. cum is parallel to bounds.
func (e *Writer) Buckets(name string, bounds []float64, cum []int64, sum float64, count int64) {
	for i, ub := range bounds {
		e.str(name, "_bucket{le=\"")
		e.float(ub)
		e.str("\"} ")
		e.int(cum[i])
		e.str("\n")
	}
	e.str(name, "_bucket{le=\"+Inf\"} ")
	e.int(count)
	e.str("\n", name, "_sum ")
	e.float(sum)
	e.str("\n", name, "_count ")
	e.int(count)
	e.str("\n")
}

// Histogram writes a complete latency histogram family.
func (e *Writer) Histogram(name, help string, h *Histogram) {
	e.Header(name, help, "histogram")
	var cum [len(LatencyBuckets)]int64
	for i := range cum {
		cum[i] = h.bkt[i].Load()
	}
	e.Buckets(name, LatencyBuckets[:], cum[:], h.sum.load(), h.count.Load())
}

// counters is a mutex-guarded key → count map, the shared body of the two
// exported counter families.
type counters[K comparable] struct {
	mu sync.Mutex
	m  map[K]int64
}

func (c *counters[K]) inc(k K) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]int64)
	}
	c.m[k]++
	c.mu.Unlock()
}

// snapshot returns each key's label text, sorted, with the parallel counts.
func (c *counters[K]) snapshot(label func(K) string) ([]string, []int64) {
	c.mu.Lock()
	byLabel := make(map[string]int64, len(c.m))
	for k, n := range c.m {
		byLabel[label(k)] = n
	}
	c.mu.Unlock()
	labels := make([]string, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	counts := make([]int64, len(labels))
	for i, l := range labels {
		counts[i] = byLabel[l]
	}
	return labels, counts
}

// LabelCounters is a small label-text → counter map. Labels are passed
// pre-formatted (`reason="idle"`) and rendered sorted.
type LabelCounters struct{ c counters[string] }

// Inc adds one to label's counter.
func (lc *LabelCounters) Inc(label string) { lc.c.inc(label) }

// Snapshot returns the labels sorted with their counts.
func (lc *LabelCounters) Snapshot() ([]string, []int64) {
	return lc.c.snapshot(func(l string) string { return l })
}

// RouteCodeCounters counts requests by (route, status code) under a struct
// key: the per-request path must not format a label string (the Sprintf it
// replaced showed up in the epoch hot-path allocation profile). Labels are
// rendered at scrape time instead.
type RouteCodeCounters struct{ c counters[reqKey] }

type reqKey struct {
	route string
	code  int
}

// Inc adds one to the (route, code) counter.
func (rc *RouteCodeCounters) Inc(route string, code int) { rc.c.inc(reqKey{route, code}) }

// Snapshot returns `route="…",code="…"` labels, sorted, with their counts.
func (rc *RouteCodeCounters) Snapshot() ([]string, []int64) {
	return rc.c.snapshot(func(k reqKey) string {
		return fmt.Sprintf("route=%q,code=\"%d\"", k.route, k.code)
	})
}

// atomicFloat accumulates float64 via CAS on the bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		neu := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, neu) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// LatencyBuckets are the request-latency histogram upper bounds, in
// seconds. Allocation epochs land mid-range; reads land in the first
// buckets. A proxied epoch pays the shard's cost plus one local hop, so the
// router shares the range.
var LatencyBuckets = [...]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

// Histogram is a lock-free cumulative histogram over LatencyBuckets.
type Histogram struct {
	count atomic.Int64
	sum   atomicFloat
	bkt   [len(LatencyBuckets)]atomic.Int64
}

// Observe records one sample, in seconds.
func (h *Histogram) Observe(sec float64) {
	h.count.Add(1)
	h.sum.add(sec)
	for i, ub := range LatencyBuckets {
		if sec <= ub {
			h.bkt[i].Add(1)
		}
	}
}

// RouteLabel normalises a request path into a bounded label set so metric
// cardinality cannot grow with session IDs. The outer request's mux pattern
// is invisible to middleware (ServeMux matches on a copy), hence by hand.
// Known routes return constant strings — this runs per request, and the
// strings.Split version it replaced was a visible slice allocation in the
// epoch hot-path profile.
func RouteLabel(path string) string {
	seg, rest, _ := strings.Cut(strings.Trim(path, "/"), "/")
	switch seg {
	case "healthz":
		return "/healthz"
	case "metrics":
		return "/metrics"
	case "gossip":
		return "/gossip"
	case "admin":
		return "/admin"
	case "v1":
		seg, rest, _ = strings.Cut(rest, "/")
		if seg != "sessions" {
			return "other"
		}
		if rest == "" {
			return "/v1/sessions"
		}
		_, rest, _ = strings.Cut(rest, "/") // the session id
		if rest == "" {
			return "/v1/sessions/{id}"
		}
		switch action, _, _ := strings.Cut(rest, "/"); action {
		case "epoch":
			return "/v1/sessions/{id}/epoch"
		case "telemetry":
			return "/v1/sessions/{id}/telemetry"
		case "result":
			return "/v1/sessions/{id}/result"
		default:
			return "/v1/sessions/{id}/" + action
		}
	default:
		return "other"
	}
}

// StatusRecorder remembers the status code a handler wrote (200 when it
// wrote none).
type StatusRecorder struct {
	http.ResponseWriter
	Code int
}

// WriteHeader records code and passes it on.
func (r *StatusRecorder) WriteHeader(code int) {
	r.Code = code
	r.ResponseWriter.WriteHeader(code)
}

// Requests is a daemon's request accounting: served requests by route and
// status code, and their latency. Each daemon renders both families under
// its own names.
type Requests struct {
	Codes   RouteCodeCounters
	Latency Histogram
}

// Observe records one served request.
func (m *Requests) Observe(route string, code int, dur time.Duration) {
	m.Codes.Inc(route, code)
	m.Latency.Observe(dur.Seconds())
}

// Instrument wraps next so that every request is counted, timed and logged
// as one msg line on log. It is the one place the serving tier observes a
// request from the outside.
func (m *Requests) Instrument(log *slog.Logger, msg string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &StatusRecorder{ResponseWriter: w, Code: http.StatusOK}
		next.ServeHTTP(rec, r)
		dur := time.Since(start)
		route := RouteLabel(r.URL.Path)
		m.Observe(route, rec.Code, dur)
		log.Info(msg,
			"method", r.Method, "route", route, "path", r.URL.Path,
			"code", rec.Code, "dur_ms", float64(dur.Microseconds())/1000)
	})
}
