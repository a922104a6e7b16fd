package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval. IDs start at 1; Parent 0 marks a root (one
// root per op, named "op"). Times are nanoseconds since the tracer started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer records spans in memory from the harness side of every seam and
// writes them out when the run ends. A nil *tracer is a valid, disabled
// tracer: every method is a no-op, which is what the untraced run passes.
//
// Seam callbacks (the router transport, the snapshot store, the market
// observer) do not know which harness call caused them, so the harness
// publishes its open call span under the session id it is touching — each
// session has at most one request in flight — and the seams look it up.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	open  map[string][]int // session id → stack of open span ids
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), open: make(map[string][]int)}
	t.on.Store(true)
	return t
}

// enable switches recording on or off; the traced run alternates the two so
// the recording overhead is measured inside one process on one tier.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// root opens the span of one op, or returns 0 while recording is off. Only
// roots consult the switch: every other span is recorded exactly when its
// parent was, so an op is traced whole or not at all.
func (t *tracer) root() int {
	if t == nil || !t.on.Load() {
		return 0
	}
	return t.newSpan(0, "op")
}

// start opens a child span and returns its id (0 under an untraced parent).
func (t *tracer) start(parent int, name string) int {
	if t == nil || parent == 0 {
		return 0
	}
	return t.newSpan(parent, name)
}

func (t *tracer) newSpan(parent int, name string) int {
	now := t.now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by start.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// addEnded records a span that just finished and lasted d — the shape the
// market observer reports (it is called once, after the search).
func (t *tracer) addEnded(parent int, name string, d time.Duration) {
	if t == nil || parent == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNS: now - int64(d), EndNS: now})
	t.mu.Unlock()
}

// push publishes an open span under a session key; top reads the innermost
// one; pop retracts it.
func (t *tracer) push(key string, id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.open[key] = append(t.open[key], id)
	t.mu.Unlock()
}

func (t *tracer) pop(key string, id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	if st := t.open[key]; len(st) > 0 && st[len(st)-1] == id {
		t.open[key] = st[:len(st)-1]
	}
	t.mu.Unlock()
}

func (t *tracer) top(key string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if st := t.open[key]; len(st) > 0 {
		return st[len(st)-1]
	}
	return 0
}

// seam wraps a seam callback in a span parented on whatever the harness has
// open for key, and publishes it so deeper seams nest under it.
func (t *tracer) seam(key, name string, f func()) {
	parent := t.top(key)
	if parent == 0 {
		f()
		return
	}
	id := t.start(parent, name)
	t.push(key, id)
	f()
	t.pop(key, id)
	t.end(id)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	buf, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	TotalMS   float64 `json:"total_ms"`
	SelfMS    float64 `json:"self_ms"`
	SelfP50US float64 `json:"self_p50_us"`
}

// selfTimes computes, per span name, the time spent in spans of that name
// and the part of it not covered by their children. A child is clipped to
// its parent and overlapping siblings are merged, so over a whole trace the
// self times sum to the total of the root spans.
func selfTimes(spans []span) []selfRow {
	type iv struct{ s, e int64 }
	children := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		c := iv{s.StartNS, s.EndNS}
		if c.s < p.StartNS {
			c.s = p.StartNS
		}
		if c.e > p.EndNS {
			c.e = p.EndNS
		}
		if c.e > c.s {
			children[p.ID] = append(children[p.ID], c)
		}
	}
	type acc struct {
		count       int
		total, self int64
		selfs       []float64
	}
	rows := make(map[string]*acc)
	for _, s := range spans {
		dur := s.EndNS - s.StartNS
		if dur < 0 {
			dur = 0
		}
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
		covered, curS, curE := int64(0), int64(0), int64(-1)
		for _, c := range ivs {
			if curE < 0 || c.s > curE {
				if curE >= 0 {
					covered += curE - curS
				}
				curS, curE = c.s, c.e
			} else if c.e > curE {
				curE = c.e
			}
		}
		if curE >= 0 {
			covered += curE - curS
		}
		a := rows[s.Name]
		if a == nil {
			a = &acc{}
			rows[s.Name] = a
		}
		a.count++
		a.total += dur
		a.self += dur - covered
		a.selfs = append(a.selfs, float64(dur-covered)/1e3)
	}
	out := make([]selfRow, 0, len(rows))
	for name, a := range rows {
		out = append(out, selfRow{Name: name, Count: a.count,
			TotalMS: float64(a.total) / 1e6, SelfMS: float64(a.self) / 1e6, SelfP50US: p50(a.selfs)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}
