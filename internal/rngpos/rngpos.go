// Package rngpos gives math/rand generators a position that can be
// captured and restored.
//
// A math/rand source cannot be copied, and replacing a plant's
// generator with a differently constructed one would change the noise
// sequence a run observes. Source instead wraps the standard seeded
// source and counts the values drawn from it since the last Seed. A
// position is (seed, draws).
//
// From the first Mark on, a source records every raw value it draws on
// a tape, and each Mark references that tape. Restoring a mark reads
// the recorded values back, so it costs neither a reseed nor a replay.
// Only a position the tape does not reach — a bare Pos, or a restored
// source that draws past the end of the record — reseeds the generator
// and replays that many draws, which reproduces its internal state
// exactly.
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

// Mark is a position plus the tape that recorded the draws after it.
// Marks compare by position in InState-style checks; the tape only makes
// restoring cheap. A Mark built from a bare Pos restores by replay.
type Mark struct {
	Pos
	tape *tape
}

// tapeChunk is the number of recorded values per tape chunk. Chunks
// keep a growing tape from copying itself or holding spare capacity.
const tapeChunk = 512

// tape is the record of a source's raw draws from draw start on. It is
// written only by the recording source and read by restores once the
// recording has ended (the source that recorded it was reseeded or
// restored); a tape is never changed after that.
type tape struct {
	start  uint64
	n      uint64 // values recorded
	chunks [][]uint64
}

func (t *tape) put(v uint64) {
	if t.n%tapeChunk == 0 {
		t.chunks = append(t.chunks, make([]uint64, 0, tapeChunk))
	}
	c := &t.chunks[len(t.chunks)-1]
	*c = append(*c, v)
	t.n++
}

// get returns the value of draw number d+1 (d draws made before it), if
// recorded.
func (t *tape) get(d uint64) (uint64, bool) {
	i := d - t.start
	if d < t.start || i >= t.n {
		return 0, false
	}
	return t.chunks[i/tapeChunk][i%tapeChunk], true
}

// Source is a counting math/rand.Source64. Build a *rand.Rand over it
// with rand.New. It is not safe for concurrent use.
//
// The underlying generator is created and seeded lazily: it follows the
// logical position only when a value has to be drawn live. A seed or a
// restore records the target position, and the next live draw brings
// the generator there, drawing forward when it already lies behind the
// target on the same seed.
type Source struct {
	src  rand.Source64 // nil until the first live draw
	gen  Pos           // src's actual position
	at   Pos           // the logical position
	tape *tape         // being played back, or recorded when rec
	rec  bool
}

// New returns a source seeded with seed.
func New(seed int64) *Source {
	return &Source{at: Pos{Seed: seed}}
}

// Seed reseeds the source, resets its draw count and ends any recording
// or playback.
func (s *Source) Seed(seed int64) {
	s.at = Pos{Seed: seed}
	s.tape, s.rec = nil, false
}

// next draws one raw value: from the tape while a restored position
// lies inside it, otherwise from the generator.
func (s *Source) next() uint64 {
	if s.tape != nil && !s.rec {
		if v, ok := s.tape.get(s.at.Draws); ok {
			s.at.Draws++
			return v
		}
		s.tape = nil // past the end of the record
	}
	if s.gen != s.at {
		s.catchUp()
	}
	v := s.src.Uint64()
	s.at.Draws++
	s.gen = s.at
	if s.rec {
		s.tape.put(v)
	}
	return v
}

// catchUp moves the generator to the logical position: it reseeds
// unless the generator is behind the target on the same seed, then
// replays the missing draws.
func (s *Source) catchUp() {
	switch {
	case s.src == nil:
		s.src = rand.NewSource(s.at.Seed).(rand.Source64)
		s.gen = Pos{Seed: s.at.Seed}
	case s.gen.Seed != s.at.Seed || s.gen.Draws > s.at.Draws:
		s.src.Seed(s.at.Seed)
		s.gen = Pos{Seed: s.at.Seed}
	}
	for s.gen.Draws < s.at.Draws {
		s.src.Uint64()
		s.gen.Draws++
	}
}

// Int63 draws one value.
func (s *Source) Int63() int64 {
	// math/rand's generator masks its 64-bit output the same way.
	return int64(s.next() & (1<<63 - 1))
}

// Uint64 draws one value. It advances the generator by the same single
// step as Int63.
func (s *Source) Uint64() uint64 { return s.next() }

// Pos returns the current position.
func (s *Source) Pos() Pos { return s.at }

// Mark returns the current position with the tape that restores it. A
// source that is neither recording nor playing back starts recording
// here, so a source that is never marked records nothing.
func (s *Source) Mark() Mark {
	if s.tape == nil {
		s.tape, s.rec = &tape{start: s.at.Draws}, true
	}
	return Mark{Pos: s.at, tape: s.tape}
}

// Restore moves the source to m and ends any recording. Draws inside
// m's tape are read from it; a draw past its end, or any draw after
// restoring a mark without a tape, reseeds and replays the generator.
func (s *Source) Restore(m Mark) {
	s.at = m.Pos
	s.tape, s.rec = m.tape, false
}
