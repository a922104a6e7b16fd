package numeric

// Rand is a small, fast, deterministic pseudo-random source (splitmix64 for
// seeding, xorshift* for the stream). All randomized components of the
// reproduction (trace generation, workload bundle selection) derive their
// streams from it so that experiment output is bit-reproducible across runs
// without depending on math/rand internals.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded deterministically from seed.
func NewRand(seed uint64) *Rand {
	// splitmix64 to spread low-entropy seeds.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return &Rand{state: z}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("numeric: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Split derives an independent child generator; the parent stream advances
// by one draw. Useful to give each application/core its own stream.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64())
}
