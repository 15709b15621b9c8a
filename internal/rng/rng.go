// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the framework.
//
// Experiments in this repository must be exactly reproducible from a seed,
// including when fitness evaluation fans out across goroutines. The
// standard library's global math/rand state is therefore avoided; instead
// every component receives an explicit *rng.Source, and concurrent
// components derive independent streams with Split.
//
// The generator is PCG-XSH-RR 64/32 (O'Neill 2014) driven by a 64-bit LCG,
// with a stream-selector increment so split streams are statistically
// independent.
package rng

import "math"

const (
	pcgMultiplier = 6364136223846793005
	defaultInc    = 1442695040888963407
)

// Source is a deterministic PCG random number generator. It is not safe
// for concurrent use; derive per-goroutine sources with Split.
type Source struct {
	state uint64
	inc   uint64 // must be odd
}

// New returns a Source seeded with seed on the default stream.
func New(seed uint64) *Source {
	return NewStream(seed, defaultInc>>1)
}

// NewStream returns a Source seeded with seed on the given stream. Distinct
// streams produce statistically independent sequences for the same seed.
func NewStream(seed, stream uint64) *Source {
	s := &Source{inc: stream<<1 | 1}
	s.state = s.inc + seed
	s.step()
	return s
}

// Reseed resets the source in place to the exact sequence
// NewStream(seed, stream) would produce, without allocating. Parallel
// components reuse one Source value per worker and Reseed it once per
// work item, so results are independent of how items map to workers.
func (s *Source) Reseed(seed, stream uint64) {
	s.inc = stream<<1 | 1
	s.state = s.inc + seed
	s.step()
}

func (s *Source) step() {
	s.state = s.state*pcgMultiplier + s.inc
}

// Uint32 returns a uniformly distributed 32-bit value.
func (s *Source) Uint32() uint32 {
	old := s.state
	s.step()
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Source) Uint64() uint64 {
	hi := uint64(s.Uint32())
	lo := uint64(s.Uint32())
	return hi<<32 | lo
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed uint64 in [0, n) by rejection
// sampling: a draw below 2^64 mod n is drawn again, which removes the
// modulo bias. That bound is below n, so it is computed (one more
// division) only for a draw below n, which is rare unless n is near
// 2^64. It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	for {
		v := s.Uint64()
		if v >= n || v >= -n%n {
			return v % n
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Range returns a uniformly distributed float64 in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// NormFloat64 returns a standard normal variate via the Marsaglia polar
// method.
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(q)/q)
	}
}

// ExpFloat64 returns an exponentially distributed variate with rate 1.
func (s *Source) ExpFloat64() float64 {
	// 1-Float64() is in (0,1], so Log never sees zero.
	return -math.Log(1 - s.Float64())
}

// Perm returns a uniformly random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	s.PermInto(p)
	return p
}

// PermInto fills p with a uniformly random permutation of [0, len(p)),
// drawing the same sequence Perm would. It never allocates, making it
// suitable for hot loops that recycle permutation buffers.
func (s *Source) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// PermInto32 fills p with a uniformly random permutation of [0, len(p)),
// drawing the same rng sequence Perm would. It is the int32 counterpart
// of PermInto for permutation buffers stored narrow (genotype order
// arrays).
func (s *Source) PermInto32(p []int32) {
	for i := range p {
		p[i] = int32(i)
	}
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle performs a Fisher-Yates shuffle over n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Split returns a new Source with a stream derived from the current state,
// advancing the parent. Sequences from parent and child do not overlap in
// practice because they use distinct odd increments.
func (s *Source) Split() *Source {
	seed := s.Uint64()
	stream := s.Uint64()
	return NewStream(seed, stream)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Pick returns a uniformly random element index of a weights slice, where
// the probability of index i is weights[i] / sum(weights). Non-positive
// weights are treated as zero. It panics if the sum of weights is not
// positive.
func (s *Source) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("rng: Pick requires a positive total weight")
	}
	x := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	// Floating-point slack: return the last positively weighted index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	panic("rng: unreachable")
}

// State captures the generator's full state for serialization; restore
// with FromState. The zero State is not valid.
type State struct {
	S   uint64 `json:"s"`
	Inc uint64 `json:"inc"`
}

// State returns the current generator state.
func (s *Source) State() State { return State{S: s.state, Inc: s.inc} }

// FromState reconstructs a Source that continues exactly where the
// captured source would have.
func FromState(st State) *Source {
	return &Source{state: st.S, inc: st.Inc | 1}
}
