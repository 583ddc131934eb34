package rngpos

import (
	"math"
	"math/rand"
	"testing"
)

// TestFreshMatchesNewSource checks that Fresh yields exactly the stream
// of rand.NewSource over 10⁵ seeds — negative, zero, multiples of the
// seeding modulus, seeds of 2³¹ and more, and the int64 extremes — for
// the directly computed draws and well past the switch to a real
// source, through both Uint64 and Int63.
func TestFreshMatchesNewSource(t *testing.T) {
	seeds := []int64{0, 1, -1, lcgMod, -lcgMod, 2 * lcgMod, lcgMod - 1, lcgMod + 1,
		1 << 31, 1<<31 + 1, 1 << 32, -(1 << 31), math.MaxInt64, math.MinInt64, 89482311}
	rng := rand.New(rand.NewSource(1))
	for len(seeds) < 100_000 {
		switch len(seeds) % 4 {
		case 0:
			seeds = append(seeds, rng.Int63())
		case 1:
			seeds = append(seeds, -rng.Int63())
		case 2:
			seeds = append(seeds, int64(rng.Int31()))
		default:
			seeds = append(seeds, int64(len(seeds)))
		}
	}
	const draws = 3 * freshDraws
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		f := NewFresh(seed)
		for i := 0; i < draws; i++ {
			var got, want uint64
			if i%2 == 0 {
				got, want = f.Uint64(), ref.Uint64()
			} else {
				got, want = uint64(f.Int63()), uint64(ref.Int63())
			}
			if got != want {
				t.Fatalf("seed %d, draw %d: Fresh gave %#x, rand.NewSource %#x", seed, i, got, want)
			}
		}
	}
}

// TestFreshThroughRand checks the source behind a *rand.Rand, the way
// campaigns draw a flip, including Seed on the Rand.
func TestFreshThroughRand(t *testing.T) {
	for _, seed := range []int64{7, -123456789, 1 << 40} {
		ref := rand.New(rand.NewSource(seed))
		r := rand.New(NewFresh(seed + 1))
		r.Seed(seed)
		for i := 0; i < 20; i++ {
			if a, b := ref.Intn(16), r.Intn(16); a != b {
				t.Fatalf("seed %d: Intn draw %d = %d, want %d", seed, i, b, a)
			}
			if a, b := ref.Int63n(8_126), r.Int63n(8_126); a != b {
				t.Fatalf("seed %d: Int63n draw %d = %d, want %d", seed, i, b, a)
			}
		}
	}
}

// BenchmarkFlipDraw compares the cost of drawing a flip's two values
// from a freshly seeded math/rand source and from Fresh.
func BenchmarkFlipDraw(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  func(int64) rand.Source
	}{
		{"NewSource", rand.NewSource},
		{"Fresh", func(s int64) rand.Source { return NewFresh(s) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink int64
			for i := 0; i < b.N; i++ {
				r := rand.New(bc.src(int64(i)))
				sink += int64(r.Intn(16)) + r.Int63n(8_126)
			}
			_ = sink
		})
	}
}
