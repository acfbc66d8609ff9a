// Package par provides small parallel-programming utilities used across the
// repository: deterministic splittable random number generators, bounded
// worker pools, and a parallel-for helper with static range chunking.
//
// The package intentionally mirrors the OpenMP idioms of the original
// MPI+OpenMP code: a fixed team of workers sweeps a contiguous index range,
// and every worker owns a private, reproducible RNG stream.
package par

// SplitMix64 is the splitmix64 generator of Steele, Lea and Flood. It is
// used both as a standalone generator for cheap hashing-style randomness and
// as the seeding procedure for Xoshiro256 streams.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64 uniformly distributed bits.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes x through one splitmix64 round. It is the stateless variant
// used to derive per-vertex, per-iteration decisions that must be identical
// regardless of which rank owns the vertex.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Xoshiro256 implements xoshiro256**, a fast high-quality PRNG suitable for
// Monte-Carlo style decisions such as the early-termination coin flips.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a generator whose state is expanded from seed with
// splitmix64, as recommended by the xoshiro authors.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var x Xoshiro256
	for i := range x.s {
		x.s[i] = sm.Next()
	}
	// A theoretically possible all-zero state would lock the generator.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
	return &x
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Next returns the next 64 random bits.
func (x *Xoshiro256) Next() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Next()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("par: Intn with non-positive n")
	}
	return int(x.Next() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). n must be positive.
func (x *Xoshiro256) Int63n(n int64) int64 {
	if n <= 0 {
		panic("par: Int63n with non-positive n")
	}
	return int64(x.Next() % uint64(n))
}
