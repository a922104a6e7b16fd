package main

import (
	"fmt"
	"math"
	"time"

	"rebudget/internal/cmpsim"
	"rebudget/internal/core"
	"rebudget/internal/market"
	"rebudget/internal/metrics"
	"rebudget/internal/numeric"
	"rebudget/internal/workload"
)

// digest folds float bit patterns into an FNV-64a hash: two runs agree
// on a digest only if they agree on every bit of every value.
type digest struct{ h uint64 }

func newDigest() digest { return digest{h: 14695981039346656037} }

func (d *digest) byte(b byte) {
	d.h ^= uint64(b)
	d.h *= 1099511628211
}

func (d *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.byte(byte(v))
		v >>= 8
	}
}

func (d *digest) floats(xs []float64) {
	for _, x := range xs {
		d.u64(math.Float64bits(x))
	}
}

func (d *digest) matrix(m [][]float64) {
	for _, row := range m {
		d.floats(row)
	}
}

func (d *digest) str(s string) {
	for i := 0; i < len(s); i++ {
		d.byte(s[i])
	}
}

func (d digest) String() string { return fmt.Sprintf("%016x", d.h) }

// checkConserved verifies the invariant every mechanism must keep: no
// resource is handed out beyond its capacity, and every number is finite.
func checkConserved(capacity []float64, allocs [][]float64) error {
	for j, c := range capacity {
		sum := 0.0
		for i := range allocs {
			v := allocs[i][j]
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("player %d resource %d: allocation %g", i, j, v)
			}
			sum += v
		}
		if sum > c*(1+1e-9) {
			return fmt.Errorf("resource %d over-allocated: %g of %g", j, sum, c)
		}
	}
	return nil
}

// theoremTol absorbs the 1 % price tolerance the equilibria stop at; the
// bounds themselves are exact statements about exact equilibria.
const theoremTol = 1e-6

// checkTheorems holds a market outcome to the paper's two guarantees:
// envy-freeness ≥ the Theorem 2 bound its MBR implies, and efficiency ≥ the
// Theorem 1 price-of-anarchy bound its MUR implies times the optimum (the
// MaxEfficiency reference, when one was computed; 0 skips it).
func checkTheorems(out *core.Outcome, players []core.PlayerSpec, optimum float64) error {
	if math.IsNaN(out.MBR) {
		return nil // not a market mechanism
	}
	ef, err := out.EnvyFreeness(players)
	if err != nil {
		return err
	}
	if b := out.EFBound(); ef < b-theoremTol {
		return fmt.Errorf("%s: envy-freeness %g below Theorem 2 bound %g", out.Mechanism, ef, b)
	}
	if optimum > 0 {
		if b := out.PoABound() * optimum; out.Efficiency() < b*(1-theoremTol) {
			return fmt.Errorf("%s: efficiency %g below Theorem 1 bound %g", out.Mechanism, out.Efficiency(), b)
		}
	}
	return nil
}

// offline is what the two workloads without a serving tier have in common:
// no daemon counters to read and nothing to shut down.
type offline struct{}

func (offline) begin() error                    { return nil }
func (offline) layerCounts() map[string]float64 { return nil }
func (offline) close()                          {}

// --- sweep64: paper phase 1 ---

const (
	sweepPool   = 480 // distinct 64-core bundles per run, 80 per category
	sweepSample = 6   // bundles (one per category) held to Theorems 1 and 2
)

// sweep64 is the analytic sweep of §6 phase 1: profile a 64-core bundle and
// run the four market mechanisms of Figure 4 on it. One op is the whole
// bundle because single allocations are bimodal (3 ms vs 9 ms) and would put
// p50 on the gap. The pool is large and category-interleaved so the mix of
// cheap and costly bundles, and with it every gated number, barely depends
// on the seed.
type sweep64 struct {
	offline
	bundles []workload.Bundle
	mechs   []core.Allocator
	names   []string
	optimum [sweepSample]float64 // MaxEfficiency welfare of the sample bundles

	tr  *tracer
	cur int // the open core.Allocate span, for the observer

	digests []uint64 // per bundle, from its first pass
	sample  [sweepSample]sweepOutcome
}

type sweepOutcome struct {
	players []core.PlayerSpec
	outs    []*core.Outcome
}

func newSweep64(seed uint64, tr *tracer) (instance, error) {
	w := &sweep64{tr: tr, digests: make([]uint64, sweepPool)}
	rng := numeric.NewRand(seed)
	cats := workload.Categories()
	for k := 0; k < sweepPool; k++ {
		b, err := workload.Generate(cats[k%len(cats)], 64, rng)
		if err != nil {
			return nil, err
		}
		w.bundles = append(w.bundles, b)
	}
	for _, m := range []core.Allocator{core.EqualBudget{}, core.Balanced{}, core.ReBudget{Step: 20}, core.ReBudget{Step: 40}} {
		w.names = append(w.names, "core.Allocate."+m.Name())
		if tr != nil {
			m = core.WithMarketConfig(m, func(mc market.Config) market.Config {
				mc.Observer = func(_, _ int, wall time.Duration) { tr.addEnded(w.cur, "market.equilibrium", wall) }
				return mc
			})
		}
		w.mechs = append(w.mechs, m)
	}
	for k := 0; k < sweepSample; k++ {
		s, err := workload.NewSetup(w.bundles[k])
		if err != nil {
			return nil, err
		}
		out, err := (core.MaxEfficiency{}).Allocate(s.Capacity, s.Players)
		if err != nil {
			return nil, err
		}
		w.optimum[k] = out.Efficiency()
	}
	return w, nil
}

func (w *sweep64) clients() int   { return 1 }
func (w *sweep64) warmupOps() int { return 24 }

func (w *sweep64) op(_, i, root int) error {
	k := i % sweepPool
	sp := w.tr.start(root, "workload.NewSetup")
	s, err := workload.NewSetup(w.bundles[k])
	w.tr.end(sp)
	if err != nil {
		return err
	}
	d := newDigest()
	var outs []*core.Outcome
	for j, m := range w.mechs {
		w.cur = w.tr.start(root, w.names[j])
		out, err := m.Allocate(s.Capacity, s.Players)
		w.tr.end(w.cur)
		w.cur = 0
		if err != nil {
			return err
		}
		if err := checkConserved(s.Capacity, out.Allocations); err != nil {
			return fmt.Errorf("bundle %d %s: %w", k, out.Mechanism, err)
		}
		d.matrix(out.Allocations)
		d.floats(out.Budgets)
		d.u64(uint64(out.Iterations))
		outs = append(outs, out)
	}
	// A bundle met again on a later pass must reproduce its first result
	// bit for bit: the mechanisms are deterministic.
	if prev := w.digests[k]; prev != 0 && prev != d.h {
		return fmt.Errorf("bundle %d: digest %016x on this pass, %016x on the first", k, d.h, prev)
	}
	w.digests[k] = d.h
	if k < sweepSample {
		w.sample[k] = sweepOutcome{players: s.Players, outs: outs}
	}
	return nil
}

func (w *sweep64) verify() []string {
	var fails []string
	for k, so := range w.sample {
		for _, out := range so.outs {
			if err := checkTheorems(out, so.players, w.optimum[k]); err != nil {
				fails = append(fails, fmt.Sprintf("bundle %d: %v", k, err))
			}
		}
	}
	return fails
}

// digest covers the bundles the warm-up already visits, so runs of any
// length — traced or not — agree on it.
func (w *sweep64) digest() string {
	d := newDigest()
	for _, h := range w.digests[:w.warmupOps()] {
		d.u64(h)
	}
	return d.String()
}

// --- chipsim8: paper phase 2 ---

// chipDigestEpochs is the prefix of the simulation the digest covers; the
// warm-up is exactly this long, so every run reaches it.
const chipDigestEpochs = 16

// chipsim8 is the execution-driven simulation of §6 phase 2, stepped one
// 1 ms epoch per op under ReBudget-20 with reallocation every epoch (§4.3).
// Six chips — one per bundle category — take turns. The bundles are fixed
// and the seed drives the simulation's random streams: what an epoch costs
// hangs on the applications, and six draws are too few to average that out.
type chipsim8 struct {
	offline
	chips  []*cmpsim.Chip
	floor  float64 // ReBudget-20's MBR floor
	tr     *tracer
	cur    int
	prefix digest
	steps  int
}

func newChipsim8(seed uint64, tr *tracer) (instance, error) {
	w := &chipsim8{tr: tr, prefix: newDigest()}
	alloc := core.ReBudget{Step: 20}
	floor, err := alloc.EffectiveMBRFloor()
	if err != nil {
		return nil, err
	}
	w.floor = floor
	rng := numeric.NewRand(7) // the legacy benchmarks' chip seed
	for k, cat := range workload.Categories() {
		b, err := workload.Generate(cat, 8, rng)
		if err != nil {
			return nil, err
		}
		cfg := cmpsim.DefaultConfig(8)
		cfg.Seed = seed*8 + uint64(k)
		chip, err := cmpsim.NewChip(cfg, b)
		if err != nil {
			return nil, err
		}
		var a core.Allocator = alloc
		if tr != nil {
			a = core.WithMarketConfig(a, func(mc market.Config) market.Config {
				mc.Observer = func(_, _ int, wall time.Duration) { tr.addEnded(w.cur, "market.equilibrium", wall) }
				return mc
			})
		}
		if err := chip.Begin(a); err != nil {
			return nil, err
		}
		w.chips = append(w.chips, chip)
	}
	return w, nil
}

func (w *chipsim8) clients() int   { return 1 }
func (w *chipsim8) warmupOps() int { return chipDigestEpochs }

func (w *chipsim8) op(_, i, root int) error {
	chip := w.chips[i%len(w.chips)]
	w.cur = w.tr.start(root, "chip.StepEpoch")
	err := chip.StepEpoch()
	w.tr.end(w.cur)
	w.cur = 0
	if err != nil {
		return err
	}
	regions, watts := chip.Regions(), chip.PowerBudgets()
	sys := cmpsim.NewSystemConfig(8)
	if sum := numeric.Sum(regions); sum > float64(sys.L2CapacityBytes/sys.RegionBytes)*(1+1e-9) {
		return fmt.Errorf("epoch %d: %g cache regions handed out of %d", i, sum, sys.L2CapacityBytes/sys.RegionBytes)
	}
	if sum := numeric.Sum(watts); sum > sys.PowerBudgetW*(1+1e-9) {
		return fmt.Errorf("epoch %d: %g W budgeted of %g", i, sum, sys.PowerBudgetW)
	}
	if h := chip.Health(); h.State != metrics.Healthy || h.AllocFailures != 0 {
		return fmt.Errorf("epoch %d: pipeline %s after %d allocation failures", i, h.State, h.AllocFailures)
	}
	if out := chip.LastOutcome(); out == nil || out.MBR < w.floor-1e-9 {
		return fmt.Errorf("epoch %d: no outcome, or MBR below the %g floor", i, w.floor)
	}
	if w.steps < chipDigestEpochs {
		w.prefix.floats(regions)
		w.prefix.floats(chip.Frequencies())
	}
	w.steps++
	return nil
}

func (w *chipsim8) verify() []string {
	var fails []string
	for k, chip := range w.chips {
		res, err := chip.Snapshot()
		if err != nil {
			fails = append(fails, fmt.Sprintf("chip %d: %v", k, err))
			continue
		}
		if !(res.WeightedSpeedup > 0) || math.IsInf(res.WeightedSpeedup, 0) || math.IsNaN(res.EnvyFreeness) {
			fails = append(fails, fmt.Sprintf("chip %d: weighted speedup %g, envy-freeness %g", k, res.WeightedSpeedup, res.EnvyFreeness))
		}
	}
	return fails
}

func (w *chipsim8) digest() string { return w.prefix.String() }
