package cache

import (
	"math"
	"testing"

	"rebudget/internal/trace"
)

func TestNewUMONValidation(t *testing.T) {
	if _, err := NewUMON(0, 0); err == nil {
		t.Error("zero regions accepted")
	}
	if _, err := NewUMON(16, 30); err == nil {
		t.Error("absurd sample shift accepted")
	}
	if _, err := NewUMON(16, 5); err != nil {
		t.Errorf("valid UMON rejected: %v", err)
	}
}

func TestUMONEmptyCurveIsAllMiss(t *testing.T) {
	u, _ := NewUMON(16, 5)
	curve := u.Curve()
	for r, m := range curve.Ratio {
		if m != 1 {
			t.Errorf("empty UMON ratio[%d] = %g, want 1", r, m)
		}
	}
}

func TestUMONStreaming(t *testing.T) {
	u, _ := NewUMON(16, 0)
	g := trace.MustNew(trace.Config{LineSize: 64, Mix: []trace.Component{{Kind: trace.Streaming, Weight: 1}}, Seed: 1})
	for i := 0; i < 200000; i++ {
		u.Observe(g.Next())
	}
	curve := u.Curve()
	if curve.Ratio[16] < 0.999 {
		t.Errorf("streaming should never hit: ratio[16] = %g", curve.Ratio[16])
	}
}

func TestUMONCyclicCliff(t *testing.T) {
	// Working set of 4 regions: miss curve should be ~1 below 4 regions
	// (after its own warmup) and ~0 at 5+ regions.
	u, _ := NewUMON(16, 0)
	ws := 4 * LinesPerRegion
	g := trace.MustNew(trace.Config{LineSize: 64, Mix: []trace.Component{{Kind: trace.Cyclic, Weight: 1, Param: float64(ws)}}, Seed: 2})
	for i := 0; i < 4*ws; i++ { // warm shadow tags
		u.Observe(g.Next())
	}
	u.Reset()
	for i := 0; i < 8*ws; i++ {
		u.Observe(g.Next())
	}
	curve := u.Curve()
	if curve.Ratio[3] < 0.95 {
		t.Errorf("ratio[3 regions] = %g, want ~1 (below working set)", curve.Ratio[3])
	}
	if curve.Ratio[5] > 0.05 {
		t.Errorf("ratio[5 regions] = %g, want ~0 (working set fits)", curve.Ratio[5])
	}
}

func TestUMONGeometricMatchesAnalytic(t *testing.T) {
	u, _ := NewUMON(16, 0)
	mean := 1.5 * LinesPerRegion // reuse mostly within ~2 regions
	g := trace.MustNew(trace.Config{LineSize: 64, Mix: []trace.Component{{Kind: trace.Geometric, Weight: 1, Param: mean}}, Seed: 3})
	for i := 0; i < 100000; i++ {
		u.Observe(g.Next())
	}
	u.Reset()
	for i := 0; i < 400000; i++ {
		u.Observe(g.Next())
	}
	curve := u.Curve()
	for _, regions := range []int{1, 2, 4, 8} {
		want := g.MissRatio(regions * RegionBytes)
		got := curve.Ratio[regions]
		if math.Abs(got-want) > 0.08 {
			t.Errorf("UMON miss at %d regions = %.3f, analytic %.3f", regions, got, want)
		}
	}
}

func TestUMONCurveMonotone(t *testing.T) {
	u, _ := NewUMON(16, 2)
	g := trace.MustNew(trace.Config{LineSize: 64, Mix: []trace.Component{
		{Kind: trace.Geometric, Weight: 0.5, Param: 3000},
		{Kind: trace.Cyclic, Weight: 0.3, Param: 6 * LinesPerRegion},
		{Kind: trace.Streaming, Weight: 0.2},
	}, Seed: 4})
	for i := 0; i < 500000; i++ {
		u.Observe(g.Next())
	}
	curve := u.Curve()
	for r := 1; r < len(curve.Ratio); r++ {
		if curve.Ratio[r] > curve.Ratio[r-1]+1e-12 {
			t.Errorf("UMON curve not monotone at %d: %g > %g", r, curve.Ratio[r], curve.Ratio[r-1])
		}
	}
}

func TestUMONSamplingApproximatesFull(t *testing.T) {
	mk := func(shift uint) *MissCurve {
		u, err := NewUMON(16, shift)
		if err != nil {
			t.Fatal(err)
		}
		g := trace.MustNew(trace.Config{LineSize: 64, Mix: []trace.Component{
			{Kind: trace.Geometric, Weight: 1, Param: 2 * LinesPerRegion},
		}, Seed: 5})
		for i := 0; i < 600000; i++ {
			u.Observe(g.Next())
		}
		return u.Curve()
	}
	full := mk(0)
	sampled := mk(5) // rate 32, as in the paper
	for _, r := range []int{1, 2, 4, 8, 16} {
		if math.Abs(full.Ratio[r]-sampled.Ratio[r]) > 0.06 {
			t.Errorf("sampled UMON deviates at %d regions: full %.3f vs sampled %.3f",
				r, full.Ratio[r], sampled.Ratio[r])
		}
	}
}

func TestUMONStorageBudget(t *testing.T) {
	// Paper (§5.1): with sampling rate 32 the shadow tags take ~3.6 kB per
	// core, under 1% of the per-core 512 kB L2 slice.
	u, _ := NewUMON(16, 5)
	const tagBits, counterBits = 40, 32 // shadow tag store plus hit counters
	bytes := (len(u.tags)*u.maxRegions*tagBits + (u.maxRegions+2)*counterBits) / 8
	if bytes > 8<<10 {
		t.Errorf("UMON storage = %d bytes, want within the same order as the paper's 3.6 kB", bytes)
	}
	perCoreL2 := 512 << 10
	if float64(bytes)/float64(perCoreL2) > 0.01*2 {
		t.Errorf("UMON storage fraction %.4f exceeds ~1%% budget", float64(bytes)/float64(perCoreL2))
	}
}

func TestUMONResetKeepsTagsWarm(t *testing.T) {
	u, _ := NewUMON(16, 0)
	ws := 2 * LinesPerRegion
	g := trace.MustNew(trace.Config{LineSize: 64, Mix: []trace.Component{{Kind: trace.Cyclic, Weight: 1, Param: float64(ws)}}, Seed: 6})
	for i := 0; i < 4*ws; i++ {
		u.Observe(g.Next())
	}
	u.Reset()
	if u.total != 0 {
		t.Fatal("Reset did not clear observation count")
	}
	for i := 0; i < ws; i++ {
		u.Observe(g.Next())
	}
	// Tags were warm, so a 3-region cache fits the 2-region working set.
	if m := u.Curve().Ratio[3]; m > 0.05 {
		t.Errorf("post-reset warm miss ratio = %g, want ~0", m)
	}
}
