// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by all simulations in this repository.
//
// Simulation studies must be reproducible: the paper (§4.1) computes
// confidence intervals over batch means of pseudo-random runs, and our
// tests assert properties of specific seeded runs. The standard library's
// math/rand is seedable too, but its generator has changed across Go
// releases; pinning our own keeps results stable forever. The generator
// is xoshiro256**, seeded via splitmix64, the construction recommended by
// Blackman & Vigna.
package rng

import "math"

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New.
type Source struct {
	s         [4]uint64
	spare     float64
	haveSpare bool
}

// New returns a Source seeded from the given seed using splitmix64, so
// that any seed (including 0) yields a well-mixed state.
func New(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// Seed resets the generator state from seed.
func (r *Source) Seed(seed uint64) {
	r.haveSpare = false
	r.spare = 0
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return
}

// ExpFloat64 returns an exponentially distributed value with mean 1,
// via inversion. Inversion (rather than ziggurat) keeps the stream
// consumption per sample constant, which makes interleaved simulations
// reproducible regardless of sample values.
func (r *Source) ExpFloat64() float64 {
	u := r.Float64()
	// u is in [0,1); 1-u is in (0,1], so the log is finite.
	return -math.Log(1 - u)
}

// NormFloat64 returns a standard normal value using the Box-Muller
// transform (again chosen for fixed stream consumption: two uniforms per
// pair of normals; we cache the second).
func (r *Source) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	radius := math.Sqrt(-2 * math.Log(u))
	theta := 2 * math.Pi * v
	r.spare = radius * math.Sin(theta)
	r.haveSpare = true
	return radius * math.Cos(theta)
}

// Split returns a new Source whose state is derived from, but independent
// of, r's current state. Used to give each simulated agent its own
// stream so that changing one agent's parameters does not perturb the
// samples seen by others (common random numbers across experiments).
func (r *Source) Split() *Source {
	var s Source
	r.SplitInto(&s)
	return &s
}

// SplitInto seeds dst exactly as Split seeds the Source it returns, so
// a simulator can keep its per-agent streams in one allocation.
func (r *Source) SplitInto(dst *Source) { dst.Seed(r.Uint64() ^ 0xd1342543de82ef95) }
