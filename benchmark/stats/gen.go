package stats

import (
	"math"
	"math/rand/v2"
)

// NewRand returns the benchmark's seeded generator. Every input a
// workload feeds the program comes from one of these, so a seed fixes
// the inputs; stream separates independent uses of one seed.
func NewRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// Zipf draws ranks in [0,n) with probability proportional to
// 1/(rank+1)^theta for 0 < theta < 1 (math/rand's Zipf needs an
// exponent above 1, and key-value traces sit at 0.99). It is the
// generator of Gray et al., "Quickly generating billion-record
// synthetic databases", as used by YCSB.
type Zipf struct {
	r                 *rand.Rand
	n                 float64
	theta, alpha, eta float64
	zetan             float64
}

// NewZipf precomputes the normalisation for n items; O(n).
func NewZipf(r *rand.Rand, n int, theta float64) *Zipf {
	zeta := func(n int) float64 {
		var s float64
		for i := 1; i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	zetan := zeta(n)
	return &Zipf{
		r: r, n: float64(n), theta: theta,
		alpha: 1 / (1 - theta),
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zetan),
		zetan: zetan,
	}
}

// Next returns the next rank; rank 0 is the most popular.
func (z *Zipf) Next() int {
	u := z.r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	k := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= int(z.n) {
		k = int(z.n) - 1
	}
	return k
}

// Scatter maps a popularity rank to an item index in [0,n) so that
// popular items are spread over the key space instead of clustered at
// its start. Multiplying by a prime larger than n is a bijection on
// [0,n), so every item keeps a popularity of its own.
func Scatter(rank, n int) int {
	const prime = 2654435761 // n must stay below it
	return int(uint64(rank) * prime % uint64(n))
}

// OpHash accumulates a workload's generated operations into one
// 64-bit FNV-1a hash, printed as workload_hash: two runs that print
// the same hash fed the program the same inputs.
type OpHash uint64

// NewOpHash returns the FNV-1a offset basis.
func NewOpHash() OpHash { return 14695981039346656037 }

// Add mixes one 64-bit word (an op code, a key index, an offset) into
// the hash.
func (h *OpHash) Add(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= 1099511628211
		v >>= 8
	}
	*h = OpHash(x)
}
