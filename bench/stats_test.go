package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(200) // 1..200, ascending
	for _, tc := range []struct {
		p         float64
		want      float64
		supported bool
	}{
		{50, 100, true},    // rank ⌈100⌉, 100 beyond
		{90, 180, true},    // rank 180, 20 beyond
		{95, 190, true},    // rank 190, exactly 10 beyond
		{95.5, 191, false}, // rank 191, 9 beyond
		{99, 198, false},
		{100, 200, false},
		{0, 1, true}, // rank clamps to 1
	} {
		got, ok := percentile(xs, tc.p)
		if got != tc.want || ok != tc.supported {
			t.Errorf("percentile(1..200, %g) = %g, %v; want %g, %v", tc.p, got, ok, tc.want, tc.supported)
		}
	}
	if v, ok := percentile(nil, 50); !math.IsNaN(v) || ok {
		t.Errorf("percentile of nothing = %g, %v", v, ok)
	}
}

func TestHighestSupported(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0},         // not even a median: 5−3 = 2 beyond
		{21, 50},       // rank 11, 10 beyond
		{100, 90},      // p90 rank 90, 10 beyond; p99 rank 99, 1 beyond
		{999, 90},      // p99 rank 990, 9 beyond
		{1000, 99},     // p99 rank 990, 10 beyond
		{10000, 99.9},  // p99.9 rank 9990, 10 beyond
		{120000, 99.9}, // no higher candidate offered
	} {
		if got := highestSupported(tc.n, 50, 90, 99, 99.9); got != tc.want {
			t.Errorf("highestSupported(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestWindowSpread(t *testing.T) {
	// Median 11; one disturbed window widens the spread.
	got := windowSpread([]float64{10, 12, 11, 30, 9})
	if want := (30.0 - 9.0) / 11.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("window spread = %g, want %g", got, want)
	}
	if got := windowSpread([]float64{1, 3}); got != 1 { // median of an even count is 2
		t.Errorf("spread of {1,3} = %g, want 1", got)
	}
	if got := windowSpread([]float64{4, 4, 4}); got != 0 {
		t.Errorf("spread of equal windows = %g, want 0", got)
	}
	if got := windowSpread(nil); !math.IsNaN(got) {
		t.Errorf("spread over no windows = %g, want NaN", got)
	}
}

func TestSplitWindows(t *testing.T) {
	b := splitWindows(103, 5)
	if len(b) != 6 || b[0] != 0 || b[5] != 103 {
		t.Fatalf("boundaries %v", b)
	}
	for k := 0; k+1 < len(b); k++ {
		if n := b[k+1] - b[k]; n < 20 || n > 21 {
			t.Errorf("window %d holds %d of 103 items", k, n)
		}
	}
	if b := splitWindows(3, 5); len(b) != 4 {
		t.Errorf("3 items cut into %d windows, want 3", len(b)-1)
	}
}

func TestSummarizeWindows(t *testing.T) {
	// 500 back-to-back ops of 2 ms, every tenth one 10 ms.
	var ops []opRec
	now := time.Duration(0)
	for i := 0; i < 500; i++ {
		d := 2 * time.Millisecond
		if i%10 == 9 {
			d = 10 * time.Millisecond
		}
		ops = append(ops, newOpRec(now, now+d, false))
		now += d
	}
	res := &runResult{Metrics: make(map[string]value)}
	summarize(ops, res)
	if got := res.Metrics["op_p50_ms"].Value; got != 2 {
		t.Errorf("op_p50_ms = %g, want 2", got)
	}
	if got := res.Metrics["op_p90_ms"].Value; got != 2 { // rank 450 of 500 is the last 2 ms op
		t.Errorf("op_p90_ms = %g, want 2", got)
	}
	if got, want := res.Metrics["ops_per_s"].Value, 100/0.280; math.Abs(got-want) > 1e-9 {
		t.Errorf("ops_per_s = %g, want %g", got, want)
	}
	for _, name := range []string{"ops_per_s", "op_p50_ms", "op_p90_ms"} {
		if sp := res.Metrics[name].Spread; sp == nil || math.Abs(*sp) > 1e-9 {
			t.Errorf("%s: five identical windows spread %v, want 0", name, sp)
		}
	}
	if res.Tail != 90 {
		t.Errorf("highest supported percentile of 500 ops = %g, want 90", res.Tail)
	}
}
