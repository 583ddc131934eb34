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
		s.Restore(Mark{Pos: mark})
		if s.Pos() != mark {
			t.Fatalf("%s: position %+v after Restore(%+v)", tc.name, s.Pos(), mark)
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
// draw and by Pos, and that Restore after Seed restores the target
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
		s.Restore(Mark{Pos: mark})
		if got := s.Int63(); got != next {
			t.Fatalf("after %d draws, Seed and Restore: draw = %d, want %d", drawn, got, next)
		}
	}
}

// TestMarkRestoresFromTape checks the recorded path: marks taken on a
// recording source restore into another source by reading the tape —
// no generator is ever built while the restored source stays inside
// the record — and a restored source that draws past the end of the
// record falls back to reseed and replay without a seam in the stream.
func TestMarkRestoresFromTape(t *testing.T) {
	ref := rand.NewSource(5).(rand.Source64)
	stream := make([]uint64, 3000)
	for i := range stream {
		stream[i] = ref.Uint64()
	}

	rec := New(5)
	for i := 0; i < 100; i++ {
		rec.Int63()
	}
	first := rec.Mark() // recording starts at draw 100
	for i := 0; i < 900; i++ {
		rec.Uint64()
	}
	mid := rec.Mark() // same tape, draw 1000
	for i := 0; i < 1000; i++ {
		rec.Uint64()
	}
	end := rec.Mark() // draw 2000, the end of the record
	rec.Seed(5)       // ends the recording
	if first.tape != mid.tape || mid.tape != end.tape || end.tape.n != 1900 {
		t.Fatalf("marks do not share one 1900-value tape")
	}

	for _, m := range []Mark{first, mid, end} {
		s := New(99)
		s.Restore(m)
		if s.Pos() != m.Pos {
			t.Fatalf("position %+v after Restore(%+v)", s.Pos(), m.Pos)
		}
		for d := m.Draws; d < uint64(len(stream)); d++ {
			if d == 2000 && s.src != nil {
				t.Fatalf("restore to draw %d built a generator inside the record", m.Draws)
			}
			if got := s.Uint64(); got != stream[d] {
				t.Fatalf("restored to draw %d: draw %d = %#x, want %#x", m.Draws, d, got, stream[d])
			}
		}
		if s.src == nil || s.tape != nil {
			t.Fatalf("restored to draw %d: drawing past the record did not fall back to the generator", m.Draws)
		}
	}

	// A restored source that is marked again hands out the tape it
	// plays; once past the record it starts a recording of its own.
	s := New(5)
	s.Restore(mid)
	if m := s.Mark(); m.tape != mid.tape || s.rec {
		t.Fatal("mark during playback did not reuse the played tape")
	}
	for s.Pos().Draws < 2100 {
		s.Int63()
	}
	if m := s.Mark(); m.tape == mid.tape || !s.rec || m.tape.start != 2100 {
		t.Fatal("mark past the record did not start a new recording")
	}
}

// TestSourceNeverMarkedRecordsNothing checks that recording is opt-in:
// a source that is only drawn from and reseeded keeps no tape.
func TestSourceNeverMarkedRecordsNothing(t *testing.T) {
	s := New(3)
	for i := 0; i < 10_000; i++ {
		s.Int63()
	}
	s.Seed(4)
	s.Uint64()
	if s.tape != nil || s.rec {
		t.Fatal("unmarked source recorded its draws")
	}
}
