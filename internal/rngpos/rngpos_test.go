package rngpos

import (
	"math/rand"
	"testing"
)

// TestSetPosReplaysExactly checks that a restored position continues
// the exact value sequence of the original generator, whether the
// restore draws forward or has to reseed, and that the wrapped source
// yields the same values as a plain math/rand source.
func TestSetPosReplaysExactly(t *testing.T) {
	plain := rand.New(rand.NewSource(42))
	src := New(42)
	r := rand.New(src)
	for i := 0; i < 1000; i++ {
		if a, b := plain.Intn(3), r.Intn(3); a != b {
			t.Fatalf("draw %d: wrapped source gave %d, plain source %d", i, b, a)
		}
	}
	mark := src.Pos()
	want := make([]float64, 50)
	for i := range want {
		want[i] = r.Float64()
	}

	for _, tc := range []struct {
		name  string
		setup func(*Source)
	}{
		{"forward", func(s *Source) {}},
		{"behind", func(s *Source) {
			for i := 0; i < 5000; i++ {
				s.Int63()
			}
		}},
		{"other seed", func(s *Source) { s.Seed(7) }},
	} {
		s := New(42)
		tc.setup(s)
		s.SetPos(mark)
		if s.Pos() != mark {
			t.Fatalf("%s: position %+v after SetPos(%+v)", tc.name, s.Pos(), mark)
		}
		rr := rand.New(s)
		for i, w := range want {
			if got := rr.Float64(); got != w {
				t.Fatalf("%s: value %d after restore = %v, want %v", tc.name, i, got, w)
			}
		}
	}
}

// TestCountsRejectedDraws checks that the count tracks source draws,
// not caller operations: Intn over a range that is not a power of two
// redraws on rejection, and each redraw counts.
func TestCountsRejectedDraws(t *testing.T) {
	src := New(1)
	r := rand.New(src)
	// Intn(n) with n just above 2^30 rejects about half of all values.
	const n = 1<<30 + 1
	for i := 0; i < 100; i++ {
		r.Intn(n)
	}
	if d := src.Pos().Draws; d <= 100 {
		t.Fatalf("100 Intn(%d) calls counted %d draws; rejections were not counted", n, d)
	}
}

// TestLazySeed checks that a pending reseed is honoured by the next
// draw and by Pos, and that SetPos after Seed restores the target
// position exactly whether the generator ran ahead or behind.
func TestLazySeed(t *testing.T) {
	ref := rand.New(rand.NewSource(9))
	want := ref.Int63()

	s := New(9)
	r := rand.New(s)
	for i := 0; i < 10; i++ {
		r.Int63()
	}
	s.Seed(9)
	if s.Pos() != (Pos{Seed: 9}) {
		t.Fatalf("Pos after Seed = %+v", s.Pos())
	}
	if got := r.Int63(); got != want {
		t.Fatalf("first draw after reseed = %d, want %d", got, want)
	}

	for _, drawn := range []int{3, 30} {
		ref := New(9)
		for i := 0; i < 20; i++ {
			ref.Int63()
		}
		mark, next := ref.Pos(), ref.Int63()

		s := New(9)
		for i := 0; i < drawn; i++ {
			s.Int63()
		}
		s.Seed(9)
		s.SetPos(mark)
		if got := s.Int63(); got != next {
			t.Fatalf("after %d draws, Seed and SetPos: draw = %d, want %d", drawn, got, next)
		}
	}
}
