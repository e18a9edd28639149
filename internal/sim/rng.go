package sim

// RNG is a small deterministic pseudo-random source (splitmix64 core with an
// xorshift mix), used wherever the simulation needs controlled randomness
// (dirty-page selection, jitter). It is deliberately independent of
// math/rand so results cannot drift with Go releases.
type RNG struct {
	seed  uint64 // the seed this generator was created with (stream identity)
	state uint64
}

// NewRNG returns a generator seeded by seed. Seed 0 is remapped so the
// stream is never the all-zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{seed: seed, state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Stream derives the named sub-stream of this generator. The derivation
// uses only the generator's seed and the name — never the stream position —
// so the result is identical no matter how many values have been drawn from
// r or how many other streams were derived first. Two calls with the same
// name return generators producing the same sequence.
func (r *RNG) Stream(name string) *RNG {
	return NewRNG(mix64(r.seed ^ StableSeed(name)))
}

// StableSeed hashes the given parts into a deterministic 64-bit seed
// (FNV-1a over the parts with a separator). It is the canonical way to give
// each shard of a parallel run — an experiment, a sweep point — a seed that
// depends only on what the shard is, never on which worker runs it or in
// what order.
func StableSeed(parts ...string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime64
		}
		h ^= 0x1f // separator so ("ab","c") != ("a","bc")
		h *= prime64
	}
	return h
}

// mix64 is one splitmix64 finalization round — enough avalanche that
// related seeds (seed ^ hash) give unrelated streams.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
