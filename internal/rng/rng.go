// Package rng provides a small, deterministic, splittable pseudo-random
// number generator together with the distributions needed by the RUMR
// simulation study (uniform, normal, truncated normal).
//
// The simulation harness runs hundreds of thousands of independent
// experiments in parallel; every experiment must be reproducible from a
// (configuration, repetition) pair alone, independent of goroutine
// scheduling. math/rand's global source is therefore unsuitable. The
// generator here is xoshiro256** seeded through SplitMix64, the combination
// recommended by Blackman and Vigna; streams derived with Split are
// statistically independent for our purposes.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct instances with New or Split.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances x by the SplitMix64 recurrence and returns the next
// output. It is used only for seeding, never as the main stream.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source deterministically derived from seed. Distinct seeds
// give streams that do not visibly correlate.
func New(seed uint64) *Source {
	s := &Source{}
	s.Reseed(seed)
	return s
}

// Reseed resets s in place to the stream New(seed) produces, without
// allocating. Batch loops that re-derive a per-repetition stream into a
// long-lived Source use it in place of New on the hot path.
func (s *Source) Reseed(seed uint64) {
	x := seed
	s.s0 = splitmix64(&x)
	s.s1 = splitmix64(&x)
	s.s2 = splitmix64(&x)
	s.s3 = splitmix64(&x)
}

// hashParts folds seed components into the single 64-bit seed NewFrom and
// ReseedFrom derive their stream from.
func hashParts(parts []uint64) uint64 {
	var x uint64 = 0x243f6a8885a308d3 // pi, for lack of anything better
	for _, p := range parts {
		x ^= p + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x = splitmix64(&x)
	}
	return x
}

// NewFrom derives a Source from several components, typically a base seed
// plus experiment coordinates. It hashes the components together so that
// (1,2) and (2,1) produce unrelated streams.
func NewFrom(parts ...uint64) *Source {
	return New(hashParts(parts))
}

// ReseedFrom resets s in place to the stream NewFrom(parts...) produces.
// Callers on allocation-free paths should pass an existing slice
// (buf[:]...) so the variadic argument does not allocate.
func (s *Source) ReseedFrom(parts ...uint64) {
	s.Reseed(hashParts(parts))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Split returns a new Source whose stream is independent of the receiver's
// future output. It draws a fresh seed from the receiver, so calling Split
// also advances the parent.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

// SplitInto is Split writing the derived stream into dst instead of
// allocating a new Source: dst is reseeded from the receiver's next
// output, advancing the parent exactly as Split does, so the two forms
// produce bit-identical child streams.
func (s *Source) SplitInto(dst *Source) {
	dst.Reseed(s.Uint64())
}

// Float64 returns a uniform sample in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo). It is
// math/bits.Mul64, which compiles to the single widening-multiply
// instruction on 64-bit targets; the hand-rolled 32x32 decomposition it
// replaced is kept in the tests as the reference implementation.
func mul64(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}

// Uniform returns a uniform sample in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Ziggurat tables for the standard normal, Doornik's ZIGNOR layout with
// 128 layers: zigX[i] is the right edge of layer i (zigX[0] is the base
// strip's pseudo-edge V/f(R), zigX[1] = R, zigX[128] = 0), zigF[i] =
// exp(-zigX[i]²/2), and zigRatio[i] = zigX[i+1]/zigX[i] is the
// quick-accept threshold. Every layer has equal area zigV, so a uniform
// 7-bit index selects layers with the correct probability. The tables
// are filled once at package init from exactly specified math functions;
// the resulting bit stream is pinned by a golden vector in testdata/.
const (
	zigLayers = 128
	zigR      = 3.442619855899      // start of the right tail
	zigV      = 9.91256303526217e-3 // common layer area
)

var (
	zigX     [zigLayers + 1]float64
	zigF     [zigLayers + 1]float64
	zigRatio [zigLayers]float64
)

func init() {
	f := math.Exp(-0.5 * zigR * zigR)
	zigX[0] = zigV / f
	zigX[1] = zigR
	zigX[zigLayers] = 0
	for i := 2; i < zigLayers; i++ {
		x2 := -2 * math.Log(zigV/zigX[i-1]+f)
		zigX[i] = math.Sqrt(x2)
		f = math.Exp(-0.5 * x2)
	}
	for i := 0; i <= zigLayers; i++ {
		zigF[i] = math.Exp(-0.5 * zigX[i] * zigX[i])
	}
	for i := 0; i < zigLayers; i++ {
		zigRatio[i] = zigX[i+1] / zigX[i]
	}
}

// Normal returns a standard normal sample using the ziggurat method.
// The common path — ~98.8% of draws — costs one Uint64, a table lookup,
// a multiply and a compare: no math.Log or math.Sqrt, which is what
// makes the engine's per-chunk error draws cheap (the polar method this
// replaced paid a Log+Sqrt per draw).
//
// One 64-bit word feeds the whole fast path: bits 0-6 select the layer,
// bit 7 the sign, bits 11-63 the 53-bit magnitude uniform.
func (s *Source) Normal() float64 {
	for {
		u := s.Uint64()
		i := u & (zigLayers - 1)
		uf := float64(u>>11) * (1.0 / (1 << 53))
		x := uf * zigX[i]
		if uf < zigRatio[i] {
			// Inside the layer's rectangular core.
			if u&(1<<7) != 0 {
				return -x
			}
			return x
		}
		if i == 0 {
			// Base strip beyond R: sample the tail by Marsaglia's method.
			neg := u&(1<<7) != 0
			for {
				// 1-Float64 keeps the logs' arguments in (0,1].
				tx := math.Log(1-s.Float64()) / zigR // <= 0
				ty := math.Log(1 - s.Float64())
				if -2*ty >= tx*tx {
					if neg {
						return tx - zigR
					}
					return zigR - tx
				}
			}
		}
		// Wedge between the curve and the rectangle: accept x when a
		// uniform y in the strip falls under the density.
		if zigF[i+1]+s.Float64()*(zigF[i]-zigF[i+1]) < math.Exp(-0.5*x*x) {
			if u&(1<<7) != 0 {
				return -x
			}
			return x
		}
	}
}

// NormalMuSigma returns a normal sample with the given mean and standard
// deviation. A non-positive sigma returns mu exactly.
func (s *Source) NormalMuSigma(mu, sigma float64) float64 {
	if sigma <= 0 {
		return mu
	}
	return mu + sigma*s.Normal()
}

// TruncNormal returns a sample from a normal distribution with the given
// mean and standard deviation, truncated by rejection to (lo, +inf).
// Used for the paper's prediction-error ratio: mean 1, sd = error,
// truncated to stay positive.
func (s *Source) TruncNormal(mu, sigma, lo float64) float64 {
	if sigma <= 0 {
		return mu
	}
	for i := 0; i < 1024; i++ {
		x := mu + sigma*s.Normal()
		if x > lo {
			return x
		}
	}
	// Pathological parameters (lo far above mu): fall back to the bound
	// plus a hair so callers never divide by zero.
	return lo + 1e-12
}
