package main

import "testing"

func TestGenSystemsFixShapesNotValues(t *testing.T) {
	a, err := placeSetup(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := placeSetup(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != generatedSystems+2 || len(b) != len(a) {
		t.Fatalf("%d and %d systems, want %d", len(a), len(b), generatedSystems+2)
	}
	differ := false
	for i := range a {
		if a[i].name != b[i].name || a[i].cyclic != b[i].cyclic {
			t.Errorf("system %d: shape %s/%v vs %s/%v differs between seeds", i, a[i].name, a[i].cyclic, b[i].name, b[i].cyclic)
		}
		da, _, err := decide(a[i], false)
		if err != nil {
			t.Fatal(err)
		}
		again, _, err := decide(a[i], true)
		if err != nil {
			t.Fatal(err)
		}
		if da != again {
			t.Errorf("%s: decision digest is not deterministic", a[i].name)
		}
		db, _, err := decide(b[i], false)
		if err != nil {
			t.Fatal(err)
		}
		differ = differ || da != db
	}
	if !differ {
		t.Error("seeds 1 and 2 generated identical decisions")
	}
}

func TestPaperOracle(t *testing.T) {
	if err := paperOracle(); err != nil {
		t.Fatal(err)
	}
}

func TestRunPlaceConcurrentDecidersAgree(t *testing.T) {
	rep, err := runPlace(3, 1, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Attempted < 2*(generatedSystems+2)*minRounds {
		t.Fatalf("%d of %d operations failed: %v", rep.Failed, rep.Attempted, rep.Problems)
	}
	for _, m := range []string{"campaign_s", "runs_per_s", "runs_per_s_w1", "scaling_eff", "setup_s", "cpu_ms_per_run",
		"decision_p50_ms", "decision_p99_ms", "analytic.profile_ms", "analytic.sweep_ms", "core.select_us"} {
		if rep.Values[m] <= 0 {
			t.Errorf("%s = %v, want > 0", m, rep.Values[m])
		}
	}
}
