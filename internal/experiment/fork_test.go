package experiment

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/sut"
	"repro/internal/target"
)

// TestAuditForkOnEveryTarget replays a seeded sample of permeability
// runs on every registered target from power-on with no early exit and
// requires each forked run to reach the identical outcome. It also
// requires the sample to exercise the shortcuts it audits: runs must
// fork past power-on, and at least one must stop early.
func TestAuditForkOnEveryTarget(t *testing.T) {
	for _, name := range sut.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			opts, err := DefaultOptionsFor(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			opts.Workers = 1
			perCase := 3
			if len(opts.Cases) > 5 {
				opts.Cases = opts.Cases[:5]
			}
			res, err := AuditFork(context.Background(), opts, perCase)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range res.Mismatches {
				t.Errorf("mismatch: %s", m)
			}
			if res.Runs != perCase*len(opts.Cases) {
				t.Errorf("audited %d runs, want %d", res.Runs, perCase*len(opts.Cases))
			}
			if res.Active == 0 {
				t.Error("no sampled run was active; the audit compared only trivial outcomes")
			}
			if res.Exits[exitHorizon.String()] == res.Runs {
				t.Error("every sampled run reached the horizon; no early exit was audited")
			}
			if res.ForkedSimMs >= res.FullSimMs {
				t.Errorf("forked runs simulated %d ms, full-horizon replays %d ms", res.ForkedSimMs, res.FullSimMs)
			}
			t.Logf("%s: %d runs (%d active), exits %v, simulated %d of %d ms",
				name, res.Runs, res.Active, res.Exits, res.ForkedSimMs, res.FullSimMs)
		})
	}
}

// TestForkCutoffSampleCountsOutputs pins the order of exit (b): run 193
// of the seed-2 quick plan (case 24, PACNT flipped at DIST_S) sees
// DIST_S output 3 and a cutoff input first deviate in the same sample.
// The rule is fd <= cutoff, so the forked run must compare that
// sample's outputs before it stops; the seeded audit sample rarely
// draws such a run.
func TestForkCutoffSampleCountsOutputs(t *testing.T) {
	opts := DefaultOptions(2)
	opts.Workers = 1
	for _, tc := range opts.Cases {
		if tc.ID == 24 {
			opts.Cases = []sut.Case{tc}
			break
		}
	}
	tgt, err := resolvedTarget(opts)
	if err != nil {
		t.Fatal(err)
	}
	golds, err := goldens(context.Background(), opts, tgt)
	if err != nil {
		t.Fatal(err)
	}
	mod, _ := tgt.System().Module(target.ModDistS)
	port := model.PortRef{Module: mod.ID, Dir: model.DirIn, Index: 1}
	got, st, err := permeabilityRun(opts, tgt, golds[0], mod, port, target.SigPACNT, 193)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fullPermRun(opts, tgt, golds[0], mod, port, target.SigPACNT, 193)
	if err != nil {
		t.Fatal(err)
	}
	if st.exit != exitCutoff {
		t.Errorf("run stopped by %s, want cutoff", st.exit)
	}
	if !want.Direct[3] {
		t.Fatalf("full-horizon outcome %+v no longer has output 3 deviating at the cutoff sample", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("forked outcome %+v, full-horizon %+v", got, want)
	}
}
