package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/fi"
	"repro/internal/model"
	"repro/internal/sut"
	"repro/internal/trace"
)

// LivenessAuditResult summarizes a masked-class soundness audit of one
// target: how many memory targets the def/use profile classified masked
// and how many of those classifications were proved by actually running
// the injection the profile claims is unobservable.
type LivenessAuditResult struct {
	Target string
	Cases  int
	// RAMTargets and StackTargets count the enumerated (cell, bit)
	// memory targets per region; RAMMasked / StackMasked how many of
	// them the profiles classify masked, summed over cases.
	RAMTargets, StackTargets int
	RAMMasked, StackMasked   int
	// Proofs counts the injection runs executed as witnesses.
	Proofs int
	// Violations lists every masked classification whose witness run
	// diverged from the golden trace — each one a pruning unsoundness.
	Violations []string
}

// AuditLiveness proves the adaptive layer's def/use pruning sound on
// the options' target: for up to perClass masked RAM targets and
// perClass masked stack targets per test case, it executes the very
// injection the liveness profile prunes and requires the run to be
// indistinguishable from the golden run — same completion, same arrest
// time, and no first difference on any recorded signal. A violation
// means pruning would have silently dropped an observable error class.
func AuditLiveness(ctx context.Context, opts Options, perClass int) (*LivenessAuditResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if perClass < 1 {
		return nil, fmt.Errorf("experiment: perClass %d must be >= 1", perClass)
	}
	t, err := resolvedTarget(opts)
	if err != nil {
		return nil, err
	}
	golds, err := goldens(ctx, opts, t)
	if err != nil {
		return nil, err
	}

	res := &LivenessAuditResult{Target: t.Name(), Cases: len(opts.Cases)}
	for ci, g := range golds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		prof, err := livenessProfile(opts, t, g, false)
		if err != nil {
			return nil, err
		}

		scratch, err := t.Acquire(g.tc, t.CaseSeed(opts.Seed, g.tc), sut.Variant{})
		if err != nil {
			return nil, err
		}
		var ram, stack []fi.MemTarget
		for _, tgt := range fi.EnumerateRAMTargets(scratch.System(), scratch.Mem()) {
			if tgt.Kind == fi.TargetRAMCell {
				ram = append(ram, tgt)
			}
		}
		stack = fi.EnumerateStackTargets(scratch.Mem())
		t.Release(scratch)

		res.RAMTargets = len(ram)
		res.StackTargets = len(stack)
		var maskedRAM, maskedStack []fi.MemTarget
		for _, tgt := range ram {
			if maskedTarget(prof, tgt) {
				maskedRAM = append(maskedRAM, tgt)
			}
		}
		for _, tgt := range stack {
			if maskedTarget(prof, tgt) {
				maskedStack = append(maskedStack, tgt)
			}
		}
		res.RAMMasked += len(maskedRAM)
		res.StackMasked += len(maskedStack)

		for _, class := range []struct {
			region string
			masked []fi.MemTarget
		}{{"ram", maskedRAM}, {"stack", maskedStack}} {
			region, masked := class.region, class.masked
			sample := masked
			if len(sample) > perClass {
				sample = fi.SampleTargets(masked, perClass, t.RunSeed(opts.Seed, "audit-"+region, ci))
			}
			for _, tgt := range sample {
				bad, err := maskedWitnessRun(opts, t, g, tgt)
				if err != nil {
					return nil, err
				}
				res.Proofs++
				for _, v := range bad {
					res.Violations = append(res.Violations,
						fmt.Sprintf("case %d %s cell %v bit %d: %s", g.tc.ID, region, tgt.Cell, tgt.Bit, v))
				}
			}
		}
	}
	return res, nil
}

// maskedWitnessRun executes the pruned injection — the same periodic
// run the internal campaign would have executed — while recording every
// signal, and reports each way the run observably diverged from the
// golden run (none, for a sound masked classification).
func maskedWitnessRun(opts Options, t sut.Target, g *golden, tgt fi.MemTarget) ([]string, error) {
	rig, err := t.Acquire(g.tc, t.CaseSeed(opts.Seed, g.tc), sut.Variant{})
	if err != nil {
		return nil, err
	}
	defer t.Release(rig)
	rec := trace.NewRecorder(rig.Bus(), t.AllSignals(), 1, opts.MaxRunMs)
	rig.Sched().OnPostSlot(rec.Hook)
	pi, err := fi.NewPeriodicInjector(tgt, opts.PeriodicMs, opts.PeriodicMs, rig.Bus(), rig.Mem())
	if err != nil {
		return nil, err
	}
	rig.Sched().OnPreSlot(pi.Hook)
	rig.Mem().OnRead(pi.MemHook())

	// Replicate the golden run's schedule exactly (runGolden): run to
	// completion within MaxRunMs, then the recording tail.
	done, err := rig.RunUntilDone(opts.MaxRunMs)
	if err != nil {
		return nil, err
	}
	var bad []string
	if !done {
		bad = append(bad, fmt.Sprintf("run did not complete within %d ms", opts.MaxRunMs))
		return bad, nil
	}
	if arrest := rig.Sched().NowMs(); arrest != g.arrestMs {
		bad = append(bad, fmt.Sprintf("completed at %d ms, golden at %d ms", arrest, g.arrestMs))
	}
	if err := rig.RunFor(opts.TailMs); err != nil {
		return nil, err
	}
	for sig, idx := range trace.Deviations(g.trace, rec.Trace()) {
		if idx != trace.NoDifference {
			bad = append(bad, fmt.Sprintf("signal %s first differs at slot %d", sig, idx))
		}
	}
	return bad, nil
}

// forkAuditPerInput sizes the permeability plan the fork audit samples
// from: the quick campaign's 100 injections per module input.
const forkAuditPerInput = 100

// ForkAuditResult summarizes a fork audit of one target: how sampled
// permeability runs ended when forked from golden-run checkpoints, and
// whether each forked outcome equals the outcome of the same run
// simulated from power-on to the golden horizon with no early exit.
type ForkAuditResult struct {
	Target       string
	Runs, Active int
	// Exits counts how the forked runs stopped, by exit name.
	Exits map[string]int
	// ForkedSimMs and FullSimMs total the scheduler time the forked
	// runs and their full-horizon replays simulated.
	ForkedSimMs, FullSimMs int64
	// Mismatches lists every run whose forked outcome differed from
	// its replay — each one an unsound fork or early exit.
	Mismatches []string
}

// AuditFork proves the permeability campaign's checkpoint-and-fork
// execution sound on the options' target: for perCase seeded runs per
// test case, drawn from the plan of a campaign with forkAuditPerInput
// injections per input, it runs the production forked run and the
// full-horizon reference and requires identical outcomes, including
// every non-deviating output entry.
func AuditFork(ctx context.Context, opts Options, perCase int) (*ForkAuditResult, error) {
	if perCase < 1 {
		return nil, fmt.Errorf("experiment: perCase %d must be >= 1", perCase)
	}
	c, err := newPermeabilityCampaign(ctx, opts, forkAuditPerInput)
	if err != nil {
		return nil, err
	}
	plan, err := c.Plan()
	if err != nil {
		return nil, err
	}
	byCase := make([][]permJob, len(opts.Cases))
	for _, j := range plan {
		byCase[j.caseIdx] = append(byCase[j.caseIdx], j)
	}

	res := &ForkAuditResult{Target: c.t.Name(), Exits: make(map[string]int)}
	for ci, jobs := range byCase {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g := c.golds[ci]
		rng := rand.New(rand.NewSource(c.t.RunSeed(opts.Seed, "audit-fork", ci)))
		pick := rng.Perm(len(jobs))
		if len(pick) > perCase {
			pick = pick[:perCase]
		}
		for _, k := range pick {
			j := jobs[k]
			got, st, err := permeabilityRun(opts, c.t, g, j.mod, j.port, j.sig, j.seq)
			if err != nil {
				return nil, err
			}
			want, err := fullPermRun(opts, c.t, g, j.mod, j.port, j.sig, j.seq)
			if err != nil {
				return nil, err
			}
			res.Runs++
			if want.Active {
				res.Active++
			}
			res.Exits[st.exit.String()]++
			res.ForkedSimMs += st.simMs
			res.FullSimMs += g.horizonMs
			if !reflect.DeepEqual(got, want) {
				res.Mismatches = append(res.Mismatches, fmt.Sprintf("%s (exit %s): forked %+v, full-horizon %+v",
					c.Describe(j, j.seq), st.exit, got, want))
			}
		}
	}
	return res, nil
}

// fullPermRun is the reference evaluation of a permeability run: it
// simulates from power-on to the golden horizon with no early exit,
// records the watched signals, and applies the direct-errors rule to
// their first differences from the golden trace.
func fullPermRun(opts Options, t sut.Target, g *golden, mod *model.ModuleDecl, port model.PortRef, sig model.SignalID, index int) (permOutcome, error) {
	var out permOutcome
	rig, err := t.Acquire(g.tc, t.CaseSeed(opts.Seed, g.tc), sut.Variant{})
	if err != nil {
		return out, err
	}
	defer t.Release(rig)
	flip := permFlip(opts, t, g, rig.System(), port, sig, index)
	inj := fi.NewInjector(flip)
	rig.Sched().OnPreSlot(inj.Hook)
	rig.Bus().OnRead(inj.ReadHook())

	outSigs, cutSigs := permWatch(mod, sig)
	watch := dedupSignals(append(append([]model.SignalID(nil), outSigs...), cutSigs...))
	rec := trace.NewRecorder(rig.Bus(), watch, 1, g.horizonMs)
	rig.Sched().OnPostSlot(rec.Hook)
	if err := rig.RunFor(g.horizonMs); err != nil {
		return out, err
	}

	applied, at := flip.Applied()
	out.Active = applied && at < g.arrestMs
	out.Direct = make(map[int]bool, len(mod.Outputs))
	if !out.Active {
		return out, nil
	}
	ir := rec.Trace()
	cutoff := trace.NoDifference // earliest other-input deviation
	for _, s := range cutSigs {
		if fd := trace.FirstDifference(g.trace, ir, s); fd != trace.NoDifference && (cutoff < 0 || fd < cutoff) {
			cutoff = fd
		}
	}
	for _, op := range mod.Outputs {
		fd := trace.FirstDifference(g.trace, ir, op.Signal)
		out.Direct[op.Index] = fd != trace.NoDifference && (cutoff < 0 || fd <= cutoff)
	}
	return out, nil
}
