// Package inputs provides the deterministic pseudo-random generators
// and synthetic data sets used by the BOTS reproduction: protein
// sequences for Alignment, cell sets for Floorplan, village-hierarchy
// parameters for Health, vectors and matrices for FFT/Sort/SparseLU/
// Strassen. Everything is seeded, so every input class is
// reproducible bit-for-bit across runs and platforms — the property
// the paper's self-verification methodology depends on.
package inputs

import "math"

// RNG is a small, fast, deterministic PRNG (splitmix64 for seeding,
// xoshiro256** for the stream). It deliberately avoids math/rand so
// that sequences are stable across Go releases, and it is the
// mechanism behind the paper's per-village seeding fix for Health's
// indeterminism (§III-B): any subcomponent can derive its own
// independent deterministic stream.
type RNG struct {
	s [4]uint64
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	return r
}

// Split derives an independent generator from this one's seed space
// and the given stream index, without disturbing this generator's
// state. Equal (seed, stream) pairs always produce equal generators.
func (r *RNG) Split(stream uint64) *RNG {
	x := r.s[0] ^ (stream * 0xd1342543de82ef95)
	return NewRNG(splitmix64(&x))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// next is one xoshiro256** step: the output of state (s0, s1, s2, s3)
// and the state after it.
func next(s0, s1, s2, s3 uint64) (x, n0, n1, n2, n3 uint64) {
	x = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return x, s0, s1, s2, rotl(s3, 45)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	var x uint64
	x, r.s[0], r.s[1], r.s[2], r.s[3] = next(r.s[0], r.s[1], r.s[2], r.s[3])
	return x
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("inputs: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// CountBernoulli consumes exactly n draws and returns how many of them
// Bernoulli(p) would have reported true, leaving the generator where n
// Bernoulli calls would. The state stays in locals for the whole loop,
// and each draw is one integer compare: Float64() < p is exactly
// float64(x>>11) < p·2⁵³, because both scalings are exact powers of
// two, and for the integer x>>11 that is x < ⌈p·2⁵³⌉·2¹¹.
func (r *RNG) CountBernoulli(n int, p float64) int {
	limit := p * (1 << 53)
	var cut uint64 // draws below cut are hits
	if limit > 0 && limit < 1<<53 {
		cut = uint64(math.Ceil(limit)) << 11
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	count := 0
	for i := 0; i < n; i++ {
		var x uint64
		x, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		if x < cut {
			count++
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	if limit >= 1<<53 { // every draw is below p
		return max(n, 0)
	}
	return count
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
