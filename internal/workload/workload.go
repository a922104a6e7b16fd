// Package workload constructs the paper's multiprogrammed bundles (§5):
// the 24 catalog applications are grouped by sensitivity class and combined
// into six bundle categories; each category fixes how many of a bundle's
// cores run applications of each class, and bundle members are drawn at
// random from their class.
package workload

import (
	"fmt"
	"sync"

	"rebudget/internal/app"
	"rebudget/internal/cache"
	"rebudget/internal/core"
	"rebudget/internal/dram"
	"rebudget/internal/numeric"
	"rebudget/internal/power"
)

// Category names follow the paper: each letter claims a quarter of the
// bundle's cores for one application class.
type Category string

// The six evaluated categories (§5).
const (
	CPBN Category = "CPBN"
	CCPP Category = "CCPP"
	CPBB Category = "CPBB"
	BBNN Category = "BBNN"
	BBPN Category = "BBPN"
	BBCN Category = "BBCN"
)

// Categories returns all six categories in the paper's order.
func Categories() []Category {
	return []Category{CPBN, CCPP, CPBB, BBNN, BBPN, BBCN}
}

func classOfLetter(r rune) (app.Class, error) {
	switch r {
	case 'C':
		return app.Cache, nil
	case 'P':
		return app.Power, nil
	case 'B':
		return app.Both, nil
	case 'N':
		return app.None, nil
	default:
		return 0, fmt.Errorf("workload: unknown class letter %q", r)
	}
}

// ClassCounts expands a category into per-class application counts for a
// bundle of the given core count (which must be divisible by 4).
func (c Category) ClassCounts(cores int) (map[app.Class]int, error) {
	if len(c) != 4 {
		return nil, fmt.Errorf("workload: category %q must have 4 letters", c)
	}
	if cores < 4 || cores%4 != 0 {
		return nil, fmt.Errorf("workload: core count %d not divisible by 4", cores)
	}
	per := cores / 4
	out := map[app.Class]int{}
	for _, r := range string(c) {
		cl, err := classOfLetter(r)
		if err != nil {
			return nil, err
		}
		out[cl] += per
	}
	return out, nil
}

// Bundle is one multiprogrammed workload: an application per core.
type Bundle struct {
	Category Category
	Apps     []app.Spec
}

// Generate draws one random bundle of the category for the given core
// count. Applications are selected uniformly (with replacement) from their
// class, mirroring the paper's random construction.
func Generate(cat Category, cores int, rng *numeric.Rand) (Bundle, error) {
	counts, err := cat.ClassCounts(cores)
	if err != nil {
		return Bundle{}, err
	}
	byClass := app.ByClass()
	b := Bundle{Category: cat}
	for _, cl := range []app.Class{app.Cache, app.Power, app.Both, app.None} {
		pool := byClass[cl]
		for k := 0; k < counts[cl]; k++ {
			b.Apps = append(b.Apps, pool[rng.Intn(len(pool))])
		}
	}
	return b, nil
}

// GenerateAll reproduces the full §5 sweep: perCategory random bundles for
// each of the six categories, deterministically from the seed.
func GenerateAll(cores, perCategory int, seed uint64) ([]Bundle, error) {
	rng := numeric.NewRand(seed)
	var out []Bundle
	for _, cat := range Categories() {
		for k := 0; k < perCategory; k++ {
			b, err := Generate(cat, cores, rng)
			if err != nil {
				return nil, err
			}
			out = append(out, b)
		}
	}
	return out, nil
}

// Figure3Bundle is the 8-core CPBB ("BBPC") bundle §6.1.1 examines: apsi×2,
// swim×2, mcf×2, hmmer and sixtrack.
func Figure3Bundle() (Bundle, error) {
	names := []string{"apsi", "apsi", "swim", "swim", "mcf", "mcf", "hmmer", "sixtrack"}
	b := Bundle{Category: CPBB}
	for _, n := range names {
		s, err := app.Lookup(n)
		if err != nil {
			return Bundle{}, err
		}
		b.Apps = append(b.Apps, s)
	}
	return b, nil
}

// Setup is an analytically-modelled market instance for a bundle: player
// specs with Talus-convexified utilities, plus the market capacities
// (regions and watts beyond the per-core free floors).
type Setup struct {
	Bundle    Bundle
	Capacity  []float64 // [Δregions, Δwatts]
	Players   []core.PlayerSpec
	Models    []*app.Model // read-only: shared by every setup of the same catalog app
	Utilities []*app.Utility
}

// profiler profiles each distinct application of one setup once. A bundle
// draws its cores from 24 catalog applications with replacement, so most
// cores repeat a program an earlier core already runs; those get the first
// one's Model and a twin of its utility — the same function over the same
// shared profile, with memo state of its own. The key is Spec.Fingerprint,
// which covers every model parameter: a spec that reuses a catalog name
// with different behaviour is a different program. The map belongs to one
// setup call; a catalog program comes from the process-wide table of its
// kind, and every core running it gets a twin.
type profiler[U interface{ Twin() U }] struct {
	build   func(*app.Model, *cache.MissCurve) (U, error)
	catalog catalogProfiles[U]
	seen    map[uint64]profiled[U]
}

type profiled[U any] struct {
	model   *app.Model
	utility U
}

func newProfiler[U interface{ Twin() U }](build func(*app.Model, *cache.MissCurve) (U, error), catalog catalogProfiles[U]) profiler[U] {
	return profiler[U]{build: build, catalog: catalog, seen: map[uint64]profiled[U]{}}
}

// catalogProfiles holds one profile per app.Catalog() program for one
// utility kind, for the whole process. Each is built lazily, exactly once,
// from the catalog's own Spec — never from a caller's, so no crafted spec
// can seed it — and callers receive only twins. Off-catalog specs are
// profiled per call, which bounds the table with nothing to evict.
type catalogProfiles[U any] map[uint64]func() (profiled[U], error)

var utilityCatalog, bandwidthCatalog = newCatalogProfiles(app.NewUtility), newCatalogProfiles(app.NewBandwidthUtility)

func newCatalogProfiles[U any](build func(*app.Model, *cache.MissCurve) (U, error)) catalogProfiles[U] {
	c := catalogProfiles[U]{}
	for _, spec := range app.Catalog() {
		c[spec.Fingerprint()] = sync.OnceValues(func() (profiled[U], error) { return profileSpec(spec, build) })
	}
	return c
}

func profileSpec[U any](spec app.Spec, build func(*app.Model, *cache.MissCurve) (U, error)) (p profiled[U], err error) {
	p.model = app.NewModel(spec)
	curve, err := p.model.AnalyticMissCurve()
	if err == nil {
		p.utility, err = build(p.model, curve)
	}
	return p, err
}

// profile returns the model and a private utility for one core running spec.
func (p profiler[U]) profile(spec app.Spec) (*app.Model, U, error) {
	fp := spec.Fingerprint()
	if first, ok := p.seen[fp]; ok {
		return first.model, first.utility.Twin(), nil
	}
	build, shared := p.catalog[fp]
	if !shared {
		build = func() (profiled[U], error) { return profileSpec(spec, p.build) }
	}
	first, err := build()
	if err != nil {
		return nil, first.utility, err
	}
	p.seen[fp] = first
	if shared {
		return first.model, first.utility.Twin(), nil
	}
	return first.model, first.utility, nil
}

// NewSetup profiles every distinct bundle member analytically (phase-1
// methodology, §6) and assembles the market.
func NewSetup(b Bundle) (*Setup, error) {
	n := len(b.Apps)
	if n == 0 {
		return nil, fmt.Errorf("workload: empty bundle")
	}
	s := &Setup{
		Bundle:    b,
		Players:   make([]core.PlayerSpec, 0, n),
		Models:    make([]*app.Model, 0, n),
		Utilities: make([]*app.Utility, 0, n),
	}
	totalFloorW := 0.0
	prof := newProfiler(app.NewUtility, utilityCatalog)
	for i, spec := range b.Apps {
		m, u, err := prof.profile(spec)
		if err != nil {
			return nil, err
		}
		s.Models = append(s.Models, m)
		s.Utilities = append(s.Utilities, u)
		totalFloorW += u.FloorPowerW()
		s.Players = append(s.Players, core.PlayerSpec{
			Name:     fmt.Sprintf("%s#%d", spec.Name, i),
			Utility:  u,
			MaxAlloc: u.MaxUsefulAlloc(),
			MinAlloc: u.MinAlloc(),
		})
	}
	// Each core contributes 512 kB (4 regions) of L2 and 10 W of TDP;
	// one region per core and the 800 MHz power floor are handed out for
	// free (§4.1), the rest is the market's to allocate.
	regions := float64(3 * n)
	watts := power.TDPPerCoreW*float64(n) - totalFloorW
	if watts <= 0 {
		return nil, fmt.Errorf("workload: power floors exhaust the TDP")
	}
	s.Capacity = []float64{regions, watts}
	return s, nil
}

// NewSetupWithBandwidth builds a three-resource market for the bundle:
// cache regions, watts, and memory bandwidth (GB/s) beyond the per-core
// floors. It exercises the framework's general M-resource form (§2); the
// paper's evaluation stops at two.
func NewSetupWithBandwidth(b Bundle) (*Setup, error) {
	n := len(b.Apps)
	if n == 0 {
		return nil, fmt.Errorf("workload: empty bundle")
	}
	s := &Setup{
		Bundle:  b,
		Players: make([]core.PlayerSpec, 0, n),
		Models:  make([]*app.Model, 0, n),
	}
	totalFloorW := 0.0
	prof := newProfiler(app.NewBandwidthUtility, bandwidthCatalog)
	for i, spec := range b.Apps {
		m, u, err := prof.profile(spec)
		if err != nil {
			return nil, err
		}
		s.Models = append(s.Models, m)
		totalFloorW += u.FloorPowerW()
		s.Players = append(s.Players, core.PlayerSpec{
			Name:     fmt.Sprintf("%s#%d", spec.Name, i),
			Utility:  u,
			MaxAlloc: u.MaxUsefulAlloc(),
			MinAlloc: u.MinAlloc(),
		})
	}
	regions := float64(3 * n)
	watts := power.TDPPerCoreW*float64(n) - totalFloorW
	if watts <= 0 {
		return nil, fmt.Errorf("workload: power floors exhaust the TDP")
	}
	// DDR3-1600 channels scale with core count (Table 1): 12.8 GB/s per
	// channel, one channel per four cores, minus the per-core floors.
	bw := dram.ChannelBandwidthGBs*float64(maxInt(n/4, 1)) - app.FloorBandwidthGBs*float64(n)
	if bw <= 0 {
		return nil, fmt.Errorf("workload: bandwidth floors exhaust the channels")
	}
	s.Capacity = []float64{regions, watts, bw}
	return s, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
