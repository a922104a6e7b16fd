package main

import (
	"math"
	"testing"
	"time"
)

func rowOf(t *testing.T, rows []selfRow, name string) selfRow {
	t.Helper()
	for _, r := range rows {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("no row %q in %+v", name, rows)
	return selfRow{}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int64) int64 { return v * 1e6 }
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", StartNS: 0, EndNS: ms(100)},
		{ID: 2, Parent: 1, Name: "client.epoch", StartNS: ms(10), EndNS: ms(60)},
		{ID: 3, Parent: 2, Name: "router.forward", StartNS: ms(20), EndNS: ms(50)},
		{ID: 4, Parent: 3, Name: "snapshot.load", StartNS: ms(25), EndNS: ms(30)},
		// Two overlapping children of the op: covered once, not twice.
		{ID: 5, Parent: 1, Name: "client.get", StartNS: ms(55), EndNS: ms(80)},
		// A child that outlives its parent is clipped to it.
		{ID: 6, Parent: 1, Name: "client.delete", StartNS: ms(90), EndNS: ms(120)},
		// A second op with nothing under it.
		{ID: 7, Parent: 0, Name: "op", StartNS: ms(200), EndNS: ms(240)},
	}
	rows := selfTimes(spans)
	for _, tc := range []struct {
		name        string
		count       int
		total, self float64
	}{
		{"op", 2, 140, 10 + 10 + 40}, // 0–10 and 80–90 of the first, all of the second
		{"client.epoch", 1, 50, 20},
		{"router.forward", 1, 30, 25},
		{"snapshot.load", 1, 5, 5},
		{"client.get", 1, 25, 25},
		{"client.delete", 1, 30, 30},
	} {
		r := rowOf(t, rows, tc.name)
		if r.Count != tc.count || math.Abs(r.TotalMS-tc.total) > 1e-9 || math.Abs(r.SelfMS-tc.self) > 1e-9 {
			t.Errorf("%s: count %d total %g self %g; want %d %g %g", tc.name, r.Count, r.TotalMS, r.SelfMS, tc.count, tc.total, tc.self)
		}
	}
}

// The property the table is read by: with children inside their parents,
// self times sum to the total of the root spans.
func TestSelfTimesSumToOpTotal(t *testing.T) {
	tr := newTracer()
	for i := 0; i < 20; i++ {
		root := tr.root()
		a := tr.start(root, "a")
		tr.push("s", a)
		tr.seam("s", "seam", func() { time.Sleep(50 * time.Microsecond) })
		tr.pop("s", a)
		tr.end(a)
		b := tr.start(root, "b")
		time.Sleep(50 * time.Microsecond)
		tr.addEnded(b, "observed", 10*time.Microsecond) // an observer reports after the fact
		tr.end(b)
		tr.end(root)
	}
	sum, ops := 0.0, 0.0
	for _, r := range selfTimes(tr.spans) {
		sum += r.SelfMS
		if r.Name == "op" {
			ops = r.TotalMS
		}
	}
	if ops == 0 || math.Abs(sum-ops) > 1e-6 {
		t.Errorf("self times sum to %g ms, op total is %g ms", sum, ops)
	}
}

func TestTracerRecordsWholeOpsOnly(t *testing.T) {
	var off *tracer
	if off.root() != 0 || off.start(1, "x") != 0 || off.top("k") != 0 {
		t.Error("a nil tracer must record nothing")
	}
	off.seam("k", "x", func() {}) // must not panic

	tr := newTracer()
	tr.enable(false)
	if root := tr.root(); root != 0 {
		t.Fatalf("root %d while recording is off", root)
	}
	tr.enable(true)
	root := tr.root()
	tr.enable(false) // switched off mid-op: the op still records whole
	child := tr.start(root, "child")
	tr.end(child)
	tr.end(root)
	ran := false
	tr.seam("nobody", "seam", func() { ran = true }) // nothing published under the key
	if !ran || len(tr.spans) != 2 {
		t.Errorf("ran %v, %d spans; want true, 2", ran, len(tr.spans))
	}
}

func TestSessionKey(t *testing.T) {
	for path, want := range map[string]string{
		"/v1/sessions":                 "",
		"/v1/sessions/abc":             "abc",
		"/v1/sessions/abc/epoch":       "abc",
		"/v1/sessions/a-b_c/telemetry": "a-b_c",
		"/metrics":                     "",
	} {
		if got := sessionKey(path); got != want {
			t.Errorf("sessionKey(%q) = %q, want %q", path, got, want)
		}
	}
}
