// Package rngpos gives math/rand generators a position that can be
// captured and restored.
//
// A math/rand source cannot be copied, and replacing a plant's
// generator with a differently constructed one would change the noise
// sequence a run observes. Source instead wraps the standard seeded
// source and counts the values drawn from it since the last Seed. A
// position is (seed, draws); restoring it reseeds and replays that many
// draws, which reproduces the generator's internal state exactly.
//
// Draws are counted at the source, not per caller operation: rand.Intn
// rejects and redraws on a small fraction of values, and Float64
// redraws when it would return 1, so the number of source draws per
// simulation step varies.
package rngpos

import "math/rand"

// Pos is a generator position: the seed and the number of source draws
// made since seeding.
type Pos struct {
	Seed  int64
	Draws uint64
}

// Source is a counting math/rand.Source64. Build a *rand.Rand over it
// with rand.New. It is not safe for concurrent use.
//
// Seeding is lazy: Seed only records the seed, and the underlying
// generator is reseeded at the next draw. SetPos draws forward from
// the generator's actual position whenever that lies behind the target
// on the same seed, so a reset followed by a restore costs no reseed
// when the generator already ran that seed.
type Source struct {
	src     rand.Source64
	at      Pos   // the underlying generator's actual position
	pending bool  // Seed was called and not yet applied
	seed    int64 // the pending seed
}

// New returns a source seeded with seed.
func New(seed int64) *Source {
	return &Source{src: rand.NewSource(seed).(rand.Source64), at: Pos{Seed: seed}}
}

// Seed reseeds the source and resets its draw count.
func (s *Source) Seed(seed int64) {
	s.pending, s.seed = true, seed
}

// reseed applies a seed to the underlying generator.
func (s *Source) reseed(seed int64) {
	s.src.Seed(seed)
	s.at = Pos{Seed: seed}
	s.pending = false
}

// Int63 draws one value.
func (s *Source) Int63() int64 {
	if s.pending {
		s.reseed(s.seed)
	}
	s.at.Draws++
	return s.src.Int63()
}

// Uint64 draws one value. It advances the underlying generator by the
// same single step as Int63.
func (s *Source) Uint64() uint64 {
	if s.pending {
		s.reseed(s.seed)
	}
	s.at.Draws++
	return s.src.Uint64()
}

// Pos returns the current position.
func (s *Source) Pos() Pos {
	if s.pending {
		return Pos{Seed: s.seed}
	}
	return s.at
}

// SetPos moves the source to p. A position ahead of the generator's
// actual one on the same seed is reached by drawing forward; anything
// else reseeds first and replays from the start.
func (s *Source) SetPos(p Pos) {
	if p.Seed != s.at.Seed || p.Draws < s.at.Draws {
		s.reseed(p.Seed)
	}
	s.pending = false
	for s.at.Draws < p.Draws {
		s.src.Int63()
		s.at.Draws++
	}
}
