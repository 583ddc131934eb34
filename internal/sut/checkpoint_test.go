package sut

import (
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/tank"
)

// tankRejectionSeed drives a tank plant whose level-noise Intn draw
// at millisecond 730 is rejected and redrawn, so the noise generator's
// position is no longer two draws per simulated millisecond.
const tankRejectionSeed = 89206

// recordBus runs rig for durationMs, snapshotting every bus value after
// each slot.
func recordBus(t *testing.T, rig Rig, durationMs int64) [][]model.Word {
	t.Helper()
	var rows [][]model.Word
	rig.Sched().OnSlotEnd(func(int64) { rows = append(rows, rig.Bus().SnapshotInto(nil)) })
	if err := rig.RunFor(durationMs); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestCheckpointRoundTrip checkpoints a run mid-way, restores the
// checkpoint into a rig acquired after a run of a different case (the
// pooled arrestment rig is reused), and requires both runs to the
// horizon to agree bit for bit: bus trace, memory cells, scheduler
// position and plant state including the noise generator. It then
// restores the same checkpoint into a rig that already ran past it,
// which must reseed and replay the generator, and checks again.
func TestCheckpointRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		target       string
		seed         int64
		midMs, endMs int64
	}{
		{"arrestment", 1009, 2_500, 6_000},
		{"tank", tankRejectionSeed, 1_500, 4_000},
		{"multiout", 1013, 2_500, 6_000},
	} {
		tc := tc
		t.Run(tc.target, func(t *testing.T) {
			tgt, err := Lookup(tc.target)
			if err != nil {
				t.Fatal(err)
			}
			cases := tgt.DefaultCases()
			a, b := cases[0], cases[len(cases)-1]

			ref, err := tgt.Acquire(a, tc.seed, Variant{})
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.RunFor(tc.midMs); err != nil {
				t.Fatal(err)
			}
			cp := ref.Checkpoint()
			if cp.NowMs() != tc.midMs {
				t.Fatalf("checkpoint at %d ms, want %d", cp.NowMs(), tc.midMs)
			}
			if tc.target == "tank" {
				st := cp.env.(tank.State)
				if draws := st.Draws(); draws <= uint64(2*tc.midMs) {
					t.Fatalf("tank noise generator at %d draws after %d ms: no Intn rejection before the checkpoint", draws, tc.midMs)
				}
			}
			want := recordBus(t, ref, tc.endMs-tc.midMs)
			final := ref.Checkpoint()
			tgt.Release(ref)

			other, err := tgt.Acquire(b, tc.seed+1, Variant{})
			if err != nil {
				t.Fatal(err)
			}
			if err := other.RunFor(tc.midMs / 2); err != nil {
				t.Fatal(err)
			}
			tgt.Release(other)

			check := func(name string, rig Rig) {
				t.Helper()
				if err := rig.Restore(cp); err != nil {
					t.Fatal(err)
				}
				if !rig.AtCheckpoint(cp) {
					t.Fatalf("%s: rig not at the checkpoint it was restored to", name)
				}
				got := recordBus(t, rig, tc.endMs-tc.midMs)
				if len(got) != len(want) {
					t.Fatalf("%s: %d samples after restore, want %d", name, len(got), len(want))
				}
				for i := range want {
					if !slices.Equal(got[i], want[i]) {
						t.Fatalf("%s: bus differs %d ms after the checkpoint: %v, want %v", name, i+1, got[i], want[i])
					}
				}
				if !slices.Equal(rig.Mem().SnapshotInto(nil), final.mem) {
					t.Errorf("%s: memory cells differ at the horizon", name)
				}
				if !rig.AtCheckpoint(final) {
					t.Errorf("%s: run state (scheduler, plant or generator) differs at the horizon", name)
				}
			}
			rig, err := tgt.Acquire(a, tc.seed, Variant{})
			if err != nil {
				t.Fatal(err)
			}
			defer tgt.Release(rig)
			check("reused rig", rig)
			check("rig past the checkpoint", rig)
			if rig.AtCheckpoint(cp) {
				t.Error("rig at the horizon reports the mid-run checkpoint's state")
			}
		})
	}
}

// TestRestoreRejectsForeignCheckpoint checks that a checkpoint cannot
// be restored into another target's rig.
func TestRestoreRejectsForeignCheckpoint(t *testing.T) {
	arr, _ := Lookup("arrestment")
	tk, _ := Lookup("tank")
	ar, err := arr.Acquire(arr.DefaultCases()[0], 1, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	defer arr.Release(ar)
	tr, err := tk.Acquire(tk.DefaultCases()[0], 1, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Restore(ar.Checkpoint()); err == nil {
		t.Error("tank rig accepted an arrestment checkpoint")
	}
	if tr.AtCheckpoint(ar.Checkpoint()) {
		t.Error("tank rig matches an arrestment checkpoint")
	}
}

// TestCheckpointNoiseTape checks restores against the plant noise
// generator's record, which starts at a rig's first checkpoint and ends
// where the rig stops drawing: a checkpoint inside the record restored
// into a rig that then runs past the record's end, and the checkpoint
// at the record's end, whose first draw falls back to reseed and
// replay. Each restore goes into a rig of the checkpoint's case that
// the pool handed out after a run of another case. Both must continue
// the uninterrupted run bit for bit.
func TestCheckpointNoiseTape(t *testing.T) {
	for _, tc := range []struct {
		target               string
		seed                 int64
		midMs, endMs, beyond int64
	}{
		{"arrestment", 1009, 2_000, 4_000, 1_500},
		{"tank", tankRejectionSeed, 500, 1_500, 1_000},
	} {
		t.Run(tc.target, func(t *testing.T) {
			tgt, err := Lookup(tc.target)
			if err != nil {
				t.Fatal(err)
			}
			c := tgt.DefaultCases()[0]

			// The uninterrupted run, never checkpointed before its end.
			plain, err := tgt.Acquire(c, tc.seed, Variant{})
			if err != nil {
				t.Fatal(err)
			}
			want := recordBus(t, plain, tc.endMs+tc.beyond)
			final := plain.Checkpoint()
			tgt.Release(plain)

			// The recording run: power-on to endMs.
			rec, err := tgt.Acquire(c, tc.seed, Variant{})
			if err != nil {
				t.Fatal(err)
			}
			rec.Checkpoint()
			if err := rec.RunFor(tc.midMs); err != nil {
				t.Fatal(err)
			}
			mid := rec.Checkpoint()
			if err := rec.RunFor(tc.endMs - tc.midMs); err != nil {
				t.Fatal(err)
			}
			end := rec.Checkpoint()
			tgt.Release(rec)

			for _, fork := range []struct {
				name string
				cp   *Checkpoint
			}{{"inside the record", mid}, {"at the end of the record", end}} {
				other, err := tgt.Acquire(tgt.DefaultCases()[len(tgt.DefaultCases())-1], tc.seed+1, Variant{})
				if err != nil {
					t.Fatal(err)
				}
				if err := other.RunFor(tc.midMs / 2); err != nil {
					t.Fatal(err)
				}
				tgt.Release(other)
				rig, err := tgt.Acquire(c, tc.seed, Variant{})
				if err != nil {
					t.Fatal(err)
				}
				if err := rig.Restore(fork.cp); err != nil {
					t.Fatal(err)
				}
				from := fork.cp.NowMs()
				got := recordBus(t, rig, tc.endMs+tc.beyond-from)
				for i := range got {
					if !slices.Equal(got[i], want[from+int64(i)]) {
						t.Fatalf("restored %s: bus differs at %d ms: %v, want %v", fork.name, from+int64(i)+1, got[i], want[from+int64(i)])
					}
				}
				if !rig.AtCheckpoint(final) {
					t.Errorf("restored %s: run state differs %d ms past the record", fork.name, tc.beyond)
				}
				tgt.Release(rig)
			}
		})
	}
}
