package rngpos

import "math/rand"

// Fresh is a math/rand.Source64 whose stream is exactly that of
// rand.NewSource(seed), built without math/rand's seeding cost for the
// first freshDraws draws.
//
// Seeding a math/rand source fills its 607-word state from the Lehmer
// generator x ← 48271·x mod (2³¹−1), run 1 841 steps from the seed, and
// XORs each word with a fixed table (rngCooked). Draw k (from 0) of a
// freshly seeded source is the sum of state words 333−k and 606−k, and
// for k < 273 neither word has been rewritten yet. Each word needs
// three generator values at fixed step numbers, and step n is
// 48271ⁿ·seed mod (2³¹−1), so a draw costs six modular products with
// precomputed powers. After freshDraws draws Fresh seeds a real
// math/rand source, replays those draws, and continues from it.
type Fresh struct {
	seed int64
	x0   uint64 // the seeding generator's start value
	n    int    // draws made
	src  rand.Source64
}

// freshDraws is the number of leading draws Fresh computes directly:
// enough for a transient flip's bit and instant with room for an
// occasional rejected draw.
const freshDraws = 4

const (
	lcgMul = 48271
	lcgMod = 1<<31 - 1
)

// seedWord is what one state word of a freshly seeded math/rand source
// is made of.
type seedWord struct {
	pow    [3]uint64 // 48271ⁿ mod (2³¹−1) for the word's three steps n
	cooked int64     // the word's rngCooked entry
}

// freshWords[2k] and freshWords[2k+1] are the feed and tap words that
// draw k adds.
var freshWords [2 * freshDraws]seedWord

func init() {
	// rngCooked[333−k] and rngCooked[606−k] from math/rand's rng.go.
	cooked := [2 * freshDraws]int64{
		-4633371852008891965, 4152330101494654406,
		4287360518296753003, 9103922860780351547,
		-1072987336855386047, 8382142935188824023,
		220828013409515943, -2171292963361310674,
	}
	for k := 0; k < freshDraws; k++ {
		for j, word := range [2]int{333 - k, 606 - k} {
			w := &freshWords[2*k+j]
			w.cooked = cooked[2*k+j]
			// Twenty discarded steps, then three per word.
			for i := range w.pow {
				w.pow[i] = lcgPow(uint64(20 + 3*word + i + 1))
			}
		}
	}
}

// lcgPow returns 48271ⁿ mod (2³¹−1).
func lcgPow(n uint64) uint64 {
	r, b := uint64(1), uint64(lcgMul)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			r = r * b % lcgMod
		}
		b = b * b % lcgMod
	}
	return r
}

// NewFresh returns a source with the stream of rand.NewSource(seed).
func NewFresh(seed int64) *Fresh {
	f := new(Fresh)
	f.Seed(seed)
	return f
}

// Seed restarts the source on seed's stream.
func (f *Fresh) Seed(seed int64) {
	// math/rand's reduction of the seed to the generator's start value.
	x := seed % lcgMod
	if x < 0 {
		x += lcgMod
	}
	if x == 0 {
		x = 89482311
	}
	*f = Fresh{seed: seed, x0: uint64(x)}
}

// word computes a state word of the freshly seeded source.
func (f *Fresh) word(w *seedWord) int64 {
	x1, x2, x3 := w.pow[0]*f.x0%lcgMod, w.pow[1]*f.x0%lcgMod, w.pow[2]*f.x0%lcgMod
	return int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x3) ^ w.cooked
}

// Uint64 draws one value.
func (f *Fresh) Uint64() uint64 {
	if f.n < freshDraws {
		w := freshWords[2*f.n : 2*f.n+2]
		f.n++
		return uint64(f.word(&w[0]) + f.word(&w[1]))
	}
	if f.src == nil {
		f.src = rand.NewSource(f.seed).(rand.Source64)
		for i := 0; i < freshDraws; i++ {
			f.src.Uint64()
		}
	}
	return f.src.Uint64()
}

// Int63 draws one value, masked as math/rand's generator masks it.
func (f *Fresh) Int63() int64 { return int64(f.Uint64() & (1<<63 - 1)) }
