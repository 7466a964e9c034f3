// Package rng provides a small, deterministic pseudo-random number
// generator and the random distributions used by the simulator.
//
// The simulator must be reproducible: the same seed has to yield the same
// workload and therefore the same scheduling decisions on every run and on
// every platform. We therefore implement the generator ourselves (SplitMix64
// for seeding, xoshiro256** for the stream) instead of depending on
// math/rand, whose stream is not guaranteed stable across Go releases.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic 64-bit pseudo-random source based on
// xoshiro256**. The zero value is not usable; construct with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given seed. Distinct seeds produce
// uncorrelated streams (the state is expanded with SplitMix64, as
// recommended by the xoshiro authors).
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		src.s[i] = z
	}
	// The all-zero state is invalid for xoshiro; SplitMix64 cannot produce
	// four zero outputs in a row, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 1
	}
	return &src
}

// Split derives an independent child source from the current state. It is
// used to give each workload stream (arrivals, demands, deadlines) its own
// generator so that changing one sweep parameter does not perturb the
// others.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xa0761d6478bd642f)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
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

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method gives an unbiased result.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	// Inverse CDF. 1-Float64() is in (0, 1], so Log never sees zero.
	return -math.Log(1-r.Float64()) / rate
}

// Uniform returns a uniform value in [lo, hi). It panics if hi < lo.
func (r *Source) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Uniform with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}

// Pareto is a bounded Pareto distribution with the constants of its
// inverse CDF precomputed, so a draw costs one math.Pow.
type Pareto struct {
	xmin, xmax float64
	// la and ha are xmin^alpha and xmax^alpha; hl is ha·la and exp is
	// -1/alpha.
	la, ha, hl, exp float64
}

// NewPareto returns the bounded Pareto distribution with shape alpha on
// [xmin, xmax]. It panics on invalid parameters.
func NewPareto(alpha, xmin, xmax float64) Pareto {
	if alpha <= 0 || xmin <= 0 || xmax < xmin {
		panic("rng: invalid bounded Pareto parameters")
	}
	la := math.Pow(xmin, alpha)
	ha := math.Pow(xmax, alpha)
	return Pareto{xmin: xmin, xmax: xmax, la: la, ha: ha, hl: ha * la, exp: -1 / alpha}
}

// Sample draws one value from r by inverse-CDF. A degenerate distribution
// (xmin == xmax) returns xmin without drawing.
func (p Pareto) Sample(r *Source) float64 {
	if p.xmax == p.xmin {
		return p.xmin
	}
	u := r.Float64()
	// Inverse of F(x) = (1 - (xmin/x)^alpha) / (1 - (xmin/xmax)^alpha).
	x := math.Pow(-(u*p.ha-u*p.la-p.ha)/p.hl, p.exp)
	if x < p.xmin {
		x = p.xmin
	}
	if x > p.xmax {
		x = p.xmax
	}
	return x
}

// BoundedParetoMean returns the analytic mean of the bounded Pareto
// distribution, used by load calculations and verified in tests against the
// paper's quoted mean of ~192 processing units.
func BoundedParetoMean(alpha, xmin, xmax float64) float64 {
	if alpha == 1 {
		return xmin * math.Log(xmax/xmin) / (1 - xmin/xmax)
	}
	num := math.Pow(xmin, alpha) * alpha / (alpha - 1) *
		(math.Pow(xmin, 1-alpha) - math.Pow(xmax, 1-alpha))
	den := 1 - math.Pow(xmin/xmax, alpha)
	return num / den
}
