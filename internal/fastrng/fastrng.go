// Package fastrng provides a reseedable drop-in replacement for the
// additive lagged-Fibonacci source behind math/rand.NewSource, emitting
// the exact same stream for every seed.
//
// Why it exists: the campaign engines reseed their noise source once per
// measurement cell (driver.Device.SeedScoped) so that every cell's noise
// stream is independent of sweep order, retries and worker count. With
// math/rand that discipline costs a fresh 4.9 KB rngSource allocation plus
// ~1800 sequential Lehmer steps per cell — profiled at >20% of a full
// reproduction, almost all of it in Seed. This package removes both costs
// while keeping the byte-identity contract intact:
//
//   - Source is reseeded in place — zero allocations per reseed.
//   - Seeding evaluates the same Lehmer chain in closed form,
//     x_j = 48271^j · x_0 mod 2³¹−1, from a precomputed table of
//     multiplier powers. The modular products are independent, so each
//     state word can be computed on its own.
//   - Seeding is lazy: Seed only stores the normalized seed and clears a
//     607-bit "ready" bitmap, and each state word is computed the
//     first time a draw reads it. A measurement cell draws a few dozen
//     words, so it pays for a few dozen words rather than all 607.
//   - The generator state update (Uint64/Int63) replicates math/rand's
//     rngSource field for field, and the additive constants folded into
//     the seeded state (math/rand's unexported rngCooked table) are
//     recovered algebraically at init from the observable output stream
//     of rand.NewSource(1) — no constants are copied from the Go sources,
//     and any divergence fails the equivalence tests immediately.
//
// The stream equality is a hard contract, not an optimization detail:
// every golden artifact in this repository (seed-42 report, traces,
// metrics expositions) encodes noise drawn through rand.Rand from this
// stream. Tests in this package compare Int63/Uint64/Float64/NormFloat64
// streams against math/rand across many seeds.
//
// Caveat: a rand.Rand wrapping a Source may be reseeded through the
// Source while live — all rand.Rand draw methods are stateless between
// calls — except rand.Rand.Read, which buffers partial words internally.
// Nothing in this repository uses Read; new code must not start.
package fastrng

import "math/rand"

const (
	rngLen  = 607 // degree of the lagged-Fibonacci recurrence
	rngTap  = 273 // distance of the second tap
	lehmerM = 1<<31 - 1
	lehmerA = 48271
	// The seeding chain consumes 20 warm-up values plus three per state
	// word; the largest exponent used is 23 + 3·(rngLen−1).
	chainLen = 23 + 3*(rngLen-1)
)

// lehmerPow[j] = 48271^j mod 2³¹−1: the closed form of j steps of the
// MINSTD Lehmer chain math/rand seeds its state vector with.
var lehmerPow [chainLen + 1]uint64

// cooked mirrors math/rand's rngCooked table: the per-word additive
// constants XORed into the seeded state vector. Recovered at init (see
// recoverCooked); never copied from the math/rand sources.
var cooked [rngLen]uint64

func init() {
	lehmerPow[0] = 1
	for j := 1; j < len(lehmerPow); j++ {
		lehmerPow[j] = lehmerPow[j-1] * lehmerA % lehmerM
	}
	recoverCooked()
}

// recoverCooked reconstructs the additive constants from the output
// stream of the reference source. The first 607 outputs of a freshly
// seeded rngSource are o_k = vec[feed_k] + vec[tap_k] (int64 wraparound)
// with feed_k = (333−k) mod 607 and tap_k = (606−k) mod 607, and each
// position is overwritten for the first time exactly when it is the feed.
// Working through the index arithmetic:
//
//   - for k ∈ [273, 606] the tap was overwritten at step k−273, so
//     o_k = vec₀[feed_k] + o_{k−273} — yielding the original words at
//     positions [0,60] ∪ [334,606];
//   - for k ∈ [0, 272] both operands are original:
//     o_k = vec₀[333−k] + vec₀[606−k], and 606−k is already known from
//     the first group — yielding positions [61, 333].
//
// The seeded words are vec₀[i] = int64(u_i ^ cooked[i]) where u_i is the
// closed-form Lehmer chain of the seed, so XORing u_i back out exposes
// the constants.
func recoverCooked() {
	ref := rand.NewSource(1).(rand.Source64)
	var o, vec0 [rngLen]int64
	for k := range o {
		o[k] = int64(ref.Uint64())
	}
	for k := rngTap; k < rngLen; k++ {
		vec0[(333-k+rngLen)%rngLen] = o[k] - o[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec0[333-k] = o[k] - vec0[606-k]
	}
	x := seedWord(1)
	for i := 0; i < rngLen; i++ {
		j := 21 + 3*i
		u := seedChain(x, j)<<40 ^ seedChain(x, j+1)<<20 ^ seedChain(x, j+2)
		cooked[i] = u ^ uint64(vec0[i])
	}
}

// seedWord normalizes a seed exactly as math/rand does before the Lehmer
// chain starts.
func seedWord(seed int64) uint64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// seedChain returns the j-th Lehmer iterate of x0 in closed form:
// x0 · 48271^j mod 2³¹−1. Both factors are below 2³¹, so the product
// fits a uint64 exactly.
func seedChain(x0 uint64, j int) uint64 {
	return x0 * lehmerPow[j] % lehmerM
}

// Source is a reseedable math/rand-compatible random source: for every
// seed, its Int63/Uint64 stream is bit-identical to
// rand.NewSource(seed). The zero value is not seeded; call Seed first
// (New does). Not goroutine-safe, exactly like rand.NewSource.
type Source struct {
	tap, feed int
	x0        uint64 // normalized seed the state words derive from
	// ready has bit i set once vec[i] holds a real state word: either its
	// seeded value, computed on first read, or a value the recurrence
	// wrote since.
	ready [(rngLen + 63) / 64]uint64
	vec   [rngLen]int64
}

var (
	_ rand.Source   = (*Source)(nil)
	_ rand.Source64 = (*Source)(nil)
)

// New returns a seeded Source.
func New(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// NewRand returns a seeded Source and a rand.Rand drawing from it.
// Reseed through the Source to reuse both allocations; see the package
// comment for the rand.Rand.Read caveat.
func NewRand(seed int64) (*Source, *rand.Rand) {
	s := New(seed)
	return s, rand.New(s)
}

// Seed resets the source to the exact state rand.NewSource(seed) starts
// in, reusing the receiver's storage. No state word is computed here:
// word reads each one on first use.
func (s *Source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	s.x0 = seedWord(seed)
	s.ready = [len(s.ready)]uint64{}
}

// word returns state word i, computing its seeded value on first use.
// The stdlib walks the Lehmer chain sequentially (20 warm-up steps, then
// three per state word); the closed form evaluates the same iterates for
// word i alone.
func (s *Source) word(i int) int64 {
	if s.ready[i>>6]&(1<<(i&63)) == 0 {
		j := 21 + 3*i
		u := seedChain(s.x0, j)<<40 ^ seedChain(s.x0, j+1)<<20 ^ seedChain(s.x0, j+2) ^ cooked[i]
		s.vec[i] = int64(u)
		s.ready[i>>6] |= 1 << (i & 63)
	}
	return s.vec[i]
}

// Uint64 advances the lagged-Fibonacci recurrence one step, replicating
// math/rand's rngSource.Uint64 exactly (including int64 wraparound).
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the low 63 bits of the next word, like math/rand.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}
