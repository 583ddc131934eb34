package sut

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/sched"
)

// Checkpoint is a rig's complete run state at a slot boundary: every
// bus value, every memory cell (RAM and stack), the scheduler position
// and the target's environment — the plant with its noise generator's
// position, or a generic target's stimulus. Installed hooks are not
// state. A checkpoint is immutable once taken and may be restored into
// any number of rigs of its case.
//
// A plant checkpoint also references the noise generator's record of
// its draws, which the first checkpoint of a run starts (see
// rngpos.Source.Mark); a restore reads the draws from it instead of
// replaying the generator. The record grows while its run goes on, so
// restoring a checkpoint concurrently with that run is a data race;
// forks of a golden run restore only after it ended.
type Checkpoint struct {
	sched sched.State
	bus   []model.Word
	mem   []model.Word
	env   any // physics.State, tank.State or stimulusState
}

// NowMs is the scheduler time the checkpoint was taken at.
func (cp *Checkpoint) NowMs() int64 { return cp.sched.NowMs }

// capture takes the target-independent part of a checkpoint.
func capture(r Rig, env any) *Checkpoint {
	return &Checkpoint{
		sched: r.Sched().State(),
		bus:   r.Bus().SnapshotInto(nil),
		mem:   r.Mem().SnapshotInto(nil),
		env:   env,
	}
}

// restore writes the target-independent part of a checkpoint.
func (cp *Checkpoint) restore(r Rig) error {
	if err := r.Sched().SetState(cp.sched); err != nil {
		return err
	}
	if err := r.Bus().Restore(cp.bus); err != nil {
		return err
	}
	return r.Mem().Restore(cp.mem)
}

// matches compares the target-independent part of a checkpoint.
func (cp *Checkpoint) matches(r Rig) bool {
	return r.Sched().InState(cp.sched) && r.Bus().Matches(cp.bus) && r.Mem().Matches(cp.mem)
}

// envOf extracts a checkpoint's environment state of type E.
func envOf[E any](cp *Checkpoint) (E, error) {
	e, ok := cp.env.(E)
	if !ok {
		return e, fmt.Errorf("sut: checkpoint environment %T does not fit a %T rig", cp.env, e)
	}
	return e, nil
}
