package main

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestValidateDefs(t *testing.T) {
	if err := validateDefs(append(append([]metricDef(nil), endToEnd...), perLayer...)); err != nil {
		t.Fatalf("the benchmark's own metrics are invalid: %v", err)
	}
	for _, bad := range [][]metricDef{
		{{"_leading", "s"}},
		{{"has space", "s"}},
		{{strings.Repeat("a", 65), "s"}},
		{{"ok", ""}},
		{{"ok", "µs"}},
		{{"ok", strings.Repeat("s", 17)}},
		{{"dup", "s"}, {"dup", "ms"}},
	} {
		if err := validateDefs(bad); err == nil {
			t.Errorf("validateDefs accepted %v", bad)
		}
	}
	if err := validateDefs([]metricDef{{"a.b-c_9", "ns/sim_ms"}, {"9x", "%"}}); err != nil {
		t.Errorf("valid names rejected: %v", err)
	}
}

func TestCheckDeclared(t *testing.T) {
	// The committed BENCHMARK.json sits one level above this package.
	if err := checkDeclared(".."); err != nil {
		t.Fatalf("BENCHMARK.json disagrees with the reported metrics: %v", err)
	}
	dir := t.TempDir()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	renamed := strings.Replace(string(data), `"campaign_s"`, `"campaign_seconds"`, 1)
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte(renamed), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkDeclared(dir); err == nil {
		t.Error("checkDeclared accepted a renamed end-to-end metric")
	}
}

func TestCollect(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "ms"}}
	m, err := collect(defs, map[string]float64{"a": 1.5, "b": 2, "extra": 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m["a"] != (metricValue{1.5, "s"}) || m["b"].Unit != "ms" {
		t.Errorf("collect = %v", m)
	}
	if _, err := collect(defs, map[string]float64{"a": 1}); err == nil {
		t.Error("collect accepted a missing metric")
	}
	if _, err := collect(defs, map[string]float64{"a": 1, "b": math.NaN()}); err == nil {
		t.Error("collect accepted NaN")
	}
}

func TestGateRejectsMismatchedDigest(t *testing.T) {
	g := &gate{}
	if !g.check("serial", "aaa", nil) {
		t.Fatal("the first output was not taken as the reference")
	}
	if !g.check("parallel", "aaa", nil) {
		t.Error("a matching digest was rejected")
	}
	if g.check("parallel", "bbb", nil) {
		t.Error("a mismatched digest was accepted")
	}
	if g.check("parallel", "", errors.New("exit status 1")) {
		t.Error("a failed invocation was accepted")
	}
	if g.attempted != 4 || g.failed != 2 || len(g.problems) != 2 {
		t.Errorf("gate counted %d attempted, %d failed, %d problems; want 4, 2, 2", g.attempted, g.failed, len(g.problems))
	}
	if g.ref != "aaa" {
		t.Errorf("reference changed to %q", g.ref)
	}
}

func TestGateRejectsDigestOffTheRecord(t *testing.T) {
	// The Serial and the sharded pass agree with each other, but not with
	// the digest recorded for the seed: both fail.
	g := &gate{pinned: "aaa"}
	if g.check("serial", "bbb", nil) || g.check("parallel", "bbb", nil) {
		t.Error("a digest other than the recorded one was accepted")
	}
	if g.ref != "bbb" || g.failed != 2 {
		t.Errorf("ref %q, %d failed; want the observed Serial digest and 2", g.ref, g.failed)
	}
	g = &gate{pinned: "aaa"}
	if !g.check("serial", "aaa", nil) || !g.check("parallel", "aaa", nil) || g.failed != 0 {
		t.Errorf("the recorded digest was rejected: %v", g.problems)
	}
}

func TestPinnedDigest(t *testing.T) {
	dir := t.TempDir()
	if _, err := pinnedDigest(dir, "perm", 1); err == nil {
		t.Error("a missing baseline was accepted")
	}
	if err := os.MkdirAll(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	doc := `{"workloads":{"perm":{"serial_sha256":{"1":"abc"}}}}`
	if err := os.WriteFile(filepath.Join(dir, "perfbench", "baseline.json"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		workload string
		seed     int64
		want     string
	}{{"perm", 1, "abc"}, {"perm", 2, ""}, {"place", 1, ""}} {
		if d, err := pinnedDigest(dir, c.workload, c.seed); d != c.want || err != nil {
			t.Errorf("pinnedDigest(%s, %d) = %q, %v; want %q", c.workload, c.seed, d, err, c.want)
		}
	}
	// The committed baseline records every campaign workload's seeds.
	if d, err := pinnedDigest("..", "perm", 1); d == "" || err != nil {
		t.Errorf("committed baseline: perm seed 1 digest %q, %v", d, err)
	}
}

func TestNotes(t *testing.T) {
	v := map[string]float64{"campaign.shard_n": 26, "campaign.shard_p99_ms": 495, "campaign.shard_max_ms": 495}
	if n := shardNote(v); !strings.Contains(n, "p99 = max (n < 100) 495 ms") {
		t.Errorf("shard note with 26 spans: %s", n)
	}
	v["campaign.shard_n"] = 130
	if n := shardNote(v); !strings.Contains(n, "p99 495 ms") || strings.Contains(n, "= max") {
		t.Errorf("shard note with 130 spans: %s", n)
	}
	if n := overheadNote([]float64{-0.2, -0.1, 0.05}); !strings.Contains(n, "unresolved") || !strings.Contains(n, "3 pairs") {
		t.Errorf("negative overhead note: %s", n)
	}
	if n := overheadNote([]float64{0.02, 0.04}); strings.Contains(n, "unresolved") {
		t.Errorf("positive overhead note: %s", n)
	}
}

func TestMarginal(t *testing.T) {
	// Three paired repetitions: with the hook, 1200/1000 ns per sim ms;
	// without, 1000/1000. A noisy third pair (host stall on the bare
	// side) does not move the median.
	with := []float64{1200e3, 2400e3, 1300e3}
	withUnits := []float64{1000, 2000, 1000}
	without := []float64{1000e3, 2000e3, 2000e3}
	withoutUnits := []float64{1000, 2000, 1000}
	if got := marginal(with, withUnits, without, withoutUnits); got != 200 {
		t.Errorf("marginal = %v, want 200 ns/sim ms", got)
	}
	// Repetitions without simulated time are skipped, not divided by.
	if got := marginal([]float64{5, 300}, []float64{0, 1}, []float64{5, 100}, []float64{0, 1}); got != 200 {
		t.Errorf("marginal with an empty repetition = %v, want 200", got)
	}
	if got := marginal(nil, nil, nil, nil); got != 0 {
		t.Errorf("marginal of nothing = %v, want 0", got)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Error("median")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	if nearestRank(xs, 0.5) != 3 || nearestRank(xs, 0.99) != 5 || nearestRank(xs, 0) != 1 {
		t.Error("nearestRank")
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	if nearestRank(hundred, 0.99) != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", nearestRank(hundred, 0.99))
	}
	if xs[0] != 5 {
		t.Error("quantiles reordered their input")
	}
}

func TestReconcile(t *testing.T) {
	v := map[string]float64{
		"experiment.golden_misses":   20,
		"experiment.golden_ms":       3,
		"campaign.plan_ms":           1,
		"campaign.reduce_ms":         2,
		"campaign.tail_ms":           100,
		"experiment.runs_executed":   1000,
		"sut.acquire_us":             100,
		"sched.sim_ms_per_run":       1000,
		"sched.host_ns_per_sim_ms":   1500,
		"fi.hook_ns_per_sim_ms":      300,
		"trace.record_ns_per_sim_ms": 200,
		"trace.compare_us_per_run":   100,
		// Layers of the internal-coverage campaign, not of a
		// permeability run: the model leaves them out.
		"ea.bank_ns_per_sim_ms": 500,
		"failure.classify_us":   50,
	}
	// per run: 0.1 + 1000 × 2000 ns + 0.1 = 2.2 ms;
	// predicted: 30 + 1 + 2 + (1000 × 2.2 + 100) / 2 = 1183 ms.
	r := reconcile(v, 1300, 2)
	if math.Abs(r.runMs-2.2) > 1e-9 || math.Abs(r.predictedMs-1183) > 1e-9 {
		t.Errorf("run %v ms, predicted %v ms; want 2.2, 1183", r.runMs, r.predictedMs)
	}
	if math.Abs(r.unexplained-(1-1183.0/1300)) > 1e-12 {
		t.Errorf("unexplained = %v", r.unexplained)
	}
}

func TestEndToEndCampaign(t *testing.T) {
	pass := func(wall, campaign float64, runs int) invocation {
		return invocation{WallS: wall, Use: usage{CPU: time.Duration(runs) * time.Millisecond, RSSMB: float64(runs)},
			Bench: benchReport{Campaigns: []benchRow{{WallS: campaign, RunsExecuted: runs}}}}
	}
	// Three rounds at 100 runs: 1-worker passes at 100, 50 and 100
	// runs/s, 2-worker passes at 200, 100 and 100 runs/s. Each 2-worker
	// pass is compared with its own round's 1-worker pass, so
	// scaling_eff is the median of 1, 1 and 0.5, not the ratio of the
	// pooled medians (100 / (2 × 100)). Set-up is 0.5 s in the 1-worker
	// passes and 1 s in the 2-worker ones; setup_s is the former.
	rounds := []round{
		{w1: pass(1.5, 1, 100), wn: pass(1.5, 0.5, 100)},
		{w1: pass(2.5, 2, 100), wn: pass(2, 1, 100)},
		{w1: pass(1.5, 1, 100), wn: pass(2, 1, 100)},
	}
	v := endToEndCampaign(rounds, 2)
	for name, want := range map[string]float64{
		"campaign_s":     1,
		"runs_per_s":     100,
		"runs_per_s_w1":  100,
		"scaling_eff":    1,
		"setup_s":        0.5,
		"cpu_ms_per_run": 1,
		"peak_rss_mb":    100,
	} {
		if math.Abs(v[name]-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, v[name], want)
		}
	}
}
