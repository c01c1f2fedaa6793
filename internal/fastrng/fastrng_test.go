package fastrng

import (
	"math/rand"
	"testing"
)

// The contract under test: for every seed, a Source's stream — raw and
// through every rand.Rand draw method the repository uses — is
// bit-identical to rand.NewSource(seed).

func testSeeds() []int64 {
	return []int64{
		0, 1, -1, 42, 89482311, 1<<31 - 1, 1 << 31, -(1 << 31),
		1<<62 + 12345, -(1<<62 + 12345), 7_777_777, -42,
	}
}

func TestRawStreamMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		ref := rand.NewSource(seed).(rand.Source64)
		got := New(seed)
		for i := 0; i < 2000; i++ {
			if g, w := got.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %#x, want %#x", seed, i, g, w)
			}
		}
		// Int63 path, separately: it shares state with Uint64 but masks.
		ref = rand.NewSource(seed).(rand.Source64)
		got.Seed(seed)
		for i := 0; i < 2000; i++ {
			if g, w := got.Int63(), ref.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 = %#x, want %#x", seed, i, g, w)
			}
		}
	}
}

// TestRandDrawsMatchMathRand drives the draw methods the campaign stack
// actually uses (NormFloat64 for meter/profiler noise, Float64 and Intn
// for fault injection) through rand.Rand on both sources.
func TestRandDrawsMatchMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		ref := rand.New(rand.NewSource(seed))
		_, got := NewRand(seed)
		for i := 0; i < 1000; i++ {
			if g, w := got.NormFloat64(), ref.NormFloat64(); g != w {
				t.Fatalf("seed %d draw %d: NormFloat64 = %v, want %v", seed, i, g, w)
			}
			if g, w := got.Float64(), ref.Float64(); g != w {
				t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, i, g, w)
			}
			if g, w := got.Intn(1<<20+7), ref.Intn(1<<20+7); g != w {
				t.Fatalf("seed %d draw %d: Intn = %d, want %d", seed, i, g, w)
			}
		}
	}
}

// TestReseedMatchesFreshSource pins the whole point of the package: an
// in-place Seed on a used source must restore the exact fresh-source
// stream, including after partial draws and under a live rand.Rand.
func TestReseedMatchesFreshSource(t *testing.T) {
	src, r := NewRand(1)
	for _, seed := range testSeeds() {
		// Desynchronize deliberately before reseeding.
		for i := 0; i < 17; i++ {
			r.NormFloat64()
		}
		src.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			if g, w := r.NormFloat64(), ref.NormFloat64(); g != w {
				t.Fatalf("seed %d draw %d after reseed: %v, want %v", seed, i, g, w)
			}
		}
	}
}

func TestManySequentialSeeds(t *testing.T) {
	src := New(0)
	for seed := int64(-300); seed < 300; seed++ {
		src.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 50; i++ {
			if g, w := src.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: %#x, want %#x", seed, i, g, w)
			}
		}
	}
}

// TestLazySeedingAtWordBoundaries checks the stream across the draw
// counts where lazy seeding changes regime: the first draw, the last draw
// whose tap word is still unread (272), the first that taps a word the
// recurrence wrote (273), the end of the first pass over the state
// (606, 607, 608) and well past it. At each count the source is reseeded
// mid-stream and must match a fresh reference again.
func TestLazySeedingAtWordBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, 272, 273, 606, 607, 608, 5000} {
		for _, seed := range testSeeds() {
			src := New(seed)
			ref := rand.NewSource(seed).(rand.Source64)
			for i := 0; i < n+1000; i++ {
				if g, w := src.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: %#x, want %#x", seed, i, g, w)
				}
			}
			src.Seed(seed)
			ref = rand.NewSource(seed).(rand.Source64)
			for i := 0; i < n; i++ {
				if g, w := src.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: %#x, want %#x", seed, i, g, w)
				}
			}
			next := seed ^ 0x5eed
			src.Seed(next)
			ref = rand.NewSource(next).(rand.Source64)
			for i := 0; i < 1000; i++ {
				if g, w := src.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("seed %d reseeded to %d after %d draws: draw %d = %#x, want %#x",
						seed, next, n, i, g, w)
				}
			}
		}
	}
}

// TestSeedAllocates pins the zero-allocation property of in-place
// reseeding — the profiled win over rand.New(rand.NewSource(seed)).
func TestSeedAllocates(t *testing.T) {
	src := New(1)
	if n := testing.AllocsPerRun(100, func() { src.Seed(12345) }); n != 0 {
		t.Fatalf("Seed allocates %v objects per call, want 0", n)
	}
}

func BenchmarkSeedInPlace(b *testing.B) {
	src := New(1)
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
	}
}

// BenchmarkSeedAndDraw is a measurement cell's pattern: a reseed then a
// few dozen draws. With lazy seeding its cost follows the draws.
func BenchmarkSeedAndDraw(b *testing.B) {
	src := New(1)
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
		for j := 0; j < 40; j++ {
			src.Uint64()
		}
	}
}

func BenchmarkSeedMathRand(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = rand.New(rand.NewSource(int64(i)))
	}
}
