package sim

// Rand is a small, fast, deterministic PRNG (xorshift64*) used everywhere
// randomness is needed in the simulator: channel bit errors, backoff
// draws, clock phases. Seeding it explicitly makes whole simulations
// reproducible, which the statistical experiments rely on.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed (zero is remapped so the
// generator never sticks).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Split derives an independent generator; handy for giving each device
// its own stream while keeping a single scenario seed.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64() | 1)
}

// State returns the generator's exact stream position so a checkpoint
// can capture it; SetState(State()) resumes the stream bit-for-bit.
func (r *Rand) State() uint64 { return r.state }

// SetState overwrites the stream position with a value previously
// returned by State.
func (r *Rand) SetState(s uint64) { r.state = s }

// ForkState derives a restored stream position from a checkpointed one.
// Seed zero returns state unchanged (exact resume); any other seed
// perturbs the position deterministically, so two forks of one
// checkpoint with different seeds diverge while each (state, seed)
// pair stays reproducible. The zero state is remapped exactly as in
// NewRand so a fork can never produce a stuck generator.
func ForkState(state, seed uint64) uint64 {
	if seed == 0 {
		return state
	}
	x := state ^ (seed * 0x9E3779B97F4A7C15)
	if x == 0 {
		x = seed | 1
	}
	return x
}
