// Command adaptcheck verifies an adaptive permeability campaign
// against its exact reference. It consumes the per-edge sample files
// written by propan -save-samples (one from an -exact run, one from an
// adaptive run over the same seed and sizes) and checks:
//
//   - both campaigns measured the same set of edges;
//   - the adaptive campaign never executed more trials than the exact
//     one on any edge (adaptive trials are a prefix of the exact plan);
//   - every edge's estimates agree within Wilson-interval tolerance:
//     the two intervals at the given z must intersect;
//   - the adaptive run saved injections (total_runs < planned_runs),
//     with planned_runs matching the exact campaign's volume.
//
// With -bench, the adaptive BENCH_campaigns.json is also audited: the
// permeability row must account runs_planned = runs_executed +
// runs_saved with runs_saved > 0.
//
// With -mode liveness the tool audits the adaptive layer's def/use
// pruning on non-arrestment targets in-process: for each requested
// registered target (default: every non-arrestment entry) it executes a
// sample of the very injections the liveness profile classifies masked
// and requires each witness run to be indistinguishable from the golden
// run — same completion time and no difference on any recorded signal.
// Any divergence is a pruning unsoundness and fails the audit.
//
// With -mode fork the tool audits the permeability campaign's
// checkpoint-and-fork execution on every registered target (or the
// -target list) in-process: for -per-class seeded runs per test case it
// runs the production run — forked from the golden run's checkpoint and
// stopped as soon as its verdict is fixed — and the same run simulated
// from power-on to the golden horizon with no early exit, and requires
// identical outcomes. Any mismatch is an unsound fork or exit and fails
// the audit.
//
// With -mode trace the tool analyzes the NDJSON event log written by a
// campaign's -events-out flag: it reconstructs the merged span trees
// (including worker-side spans folded in over the dispatch protocols),
// prints each campaign trace's critical path and the slowest shards
// with queue/exec/network phase attribution, and with -flame-out
// writes folded stacks for flamegraph renderers.
//
// With -mode analytic the tool instead validates the analytic
// propagation engine (internal/analytic) in-process:
//
//   - the three placement rankings (exposure, impact, criticality) of
//     the analytic profile are byte-identical to the tree-based
//     reference on the paper's arrestment matrix;
//   - on the embedded cyclic fixture, fixpoint impacts agree with
//     Monte Carlo estimation within analytic.CyclicTolerance and are
//     never below it (the fixpoint is a guaranteed overestimate);
//   - with -bench, the solver timing rows written by place -bench-out
//     satisfy the performance contract: full ranking + sweep under
//     50 ms per operation, at least 100× faster than the measured
//     permeability campaign, and incremental re-analysis at least 10×
//     faster than a cold solve.
//
// Usage:
//
//	adaptcheck -exact exact.json -adaptive adaptive.json [-bench BENCH_adaptive.json] [-z 1.96]
//	adaptcheck -mode liveness [-target tank,multiout] [-per-class 8]
//	adaptcheck -mode fork [-target arrestment,tank] [-per-class 8]
//	adaptcheck -mode analytic [-bench BENCH_analytic.json]
//	adaptcheck -mode trace -events events.ndjson [-flame-out stacks.folded] [-top 5]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/paper"
	"repro/internal/stats"
	"repro/internal/sut"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "adaptcheck:", err)
		os.Exit(1)
	}
}

// sampleEdge mirrors one row of the samples document propan writes.
type sampleEdge struct {
	Module    string `json:"module"`
	In        int    `json:"in"`
	Out       int    `json:"out"`
	From      string `json:"from"`
	To        string `json:"to"`
	Successes int    `json:"successes"`
	Trials    int    `json:"trials"`
}

type samplesDoc struct {
	PlannedRuns int          `json:"planned_runs"`
	TotalRuns   int          `json:"total_runs"`
	ActiveRuns  int          `json:"active_runs"`
	Edges       []sampleEdge `json:"edges"`
}

type benchRow struct {
	Campaign     string  `json:"campaign"`
	Runs         int     `json:"runs"`
	WallS        float64 `json:"wall_s"`
	RunsPlanned  int     `json:"runs_planned"`
	RunsExecuted int     `json:"runs_executed"`
	RunsSaved    int     `json:"runs_saved"`
}

type benchDoc struct {
	Campaigns []benchRow `json:"campaigns"`
}

func readSamples(path string) (*samplesDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc samplesDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Edges) == 0 {
		return nil, fmt.Errorf("%s: no edges", path)
	}
	return &doc, nil
}

func edgeKey(e sampleEdge) string {
	return fmt.Sprintf("%s[%d->%d] %s->%s", e.Module, e.In, e.Out, e.From, e.To)
}

func run() error {
	mode := flag.String("mode", "samples",
		"what to check: samples (adaptive vs exact campaign), liveness (pruning soundness per target), fork (checkpoint-and-fork soundness per target), analytic (solver equivalence and speed) or trace (campaign event-log analysis)")
	exactPath := flag.String("exact", "", "samples JSON from the exact campaign")
	adaptivePath := flag.String("adaptive", "", "samples JSON from the adaptive campaign")
	benchPath := flag.String("bench", "", "adaptive BENCH_campaigns.json to audit (optional)")
	z := flag.Float64("z", 1.96, "Wilson interval critical value")
	targets := flag.String("target", "",
		"liveness and fork modes: comma-separated registered targets (empty = every non-arrestment entry for liveness, every entry for fork)")
	perClass := flag.Int("per-class", 8,
		"liveness mode: masked targets proven per region per case; fork mode: runs replayed per case")
	seed := flag.Int64("seed", 1, "liveness and fork modes: campaign seed")
	eventsPath := flag.String("events", "", "trace mode: NDJSON event log from a campaign's -events-out")
	flameOut := flag.String("flame-out", "", "trace mode: write folded flamegraph stacks to this file")
	top := flag.Int("top", 5, "trace mode: how many straggler shards to report")
	flag.Parse()

	switch *mode {
	case "samples":
		// Fall through to the campaign comparison below.
	case "liveness":
		return runLiveness(*targets, *perClass, *seed)
	case "fork":
		return runFork(*targets, *perClass, *seed)
	case "analytic":
		return runAnalytic(*benchPath)
	case "trace":
		return runTrace(*eventsPath, *flameOut, *top)
	default:
		return fmt.Errorf("unknown -mode %q (want samples, liveness, fork, analytic or trace)", *mode)
	}

	if *exactPath == "" || *adaptivePath == "" {
		return fmt.Errorf("both -exact and -adaptive are required")
	}
	if *z <= 0 {
		return fmt.Errorf("-z must be positive (got %v)", *z)
	}

	exact, err := readSamples(*exactPath)
	if err != nil {
		return err
	}
	adaptive, err := readSamples(*adaptivePath)
	if err != nil {
		return err
	}

	if exact.TotalRuns != exact.PlannedRuns {
		return fmt.Errorf("exact campaign executed %d of %d planned runs; is %s really from an -exact run?",
			exact.TotalRuns, exact.PlannedRuns, *exactPath)
	}
	if adaptive.PlannedRuns != exact.PlannedRuns {
		return fmt.Errorf("planned volumes differ: exact %d, adaptive %d — different seeds or sizes?",
			exact.PlannedRuns, adaptive.PlannedRuns)
	}
	if adaptive.TotalRuns >= adaptive.PlannedRuns {
		return fmt.Errorf("adaptive campaign saved nothing: executed %d of %d planned runs",
			adaptive.TotalRuns, adaptive.PlannedRuns)
	}

	exEdges := make(map[string]sampleEdge, len(exact.Edges))
	for _, e := range exact.Edges {
		exEdges[edgeKey(e)] = e
	}

	var violations []string
	maxDelta := 0.0
	for _, a := range adaptive.Edges {
		key := edgeKey(a)
		e, ok := exEdges[key]
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: measured adaptively but absent from the exact campaign", key))
			continue
		}
		delete(exEdges, key)
		if a.Trials > e.Trials {
			violations = append(violations,
				fmt.Sprintf("%s: adaptive ran %d trials, exact only %d — not a prefix", key, a.Trials, e.Trials))
			continue
		}
		pe := stats.Proportion{Successes: e.Successes, Trials: e.Trials}
		pa := stats.Proportion{Successes: a.Successes, Trials: a.Trials}
		if d := abs(pe.Estimate() - pa.Estimate()); d > maxDelta {
			maxDelta = d
		}
		eLo, eHi := pe.WilsonCI(*z)
		aLo, aHi := pa.WilsonCI(*z)
		if aLo > eHi || eLo > aHi {
			violations = append(violations, fmt.Sprintf(
				"%s: intervals disjoint — exact %d/%d [%.4f, %.4f], adaptive %d/%d [%.4f, %.4f]",
				key, e.Successes, e.Trials, eLo, eHi, a.Successes, a.Trials, aLo, aHi))
		}
	}
	for key := range exEdges {
		violations = append(violations, fmt.Sprintf("%s: measured exactly but absent from the adaptive campaign", key))
	}

	if *benchPath != "" {
		data, err := os.ReadFile(*benchPath)
		if err != nil {
			return err
		}
		var bench benchDoc
		if err := json.Unmarshal(data, &bench); err != nil {
			return fmt.Errorf("%s: %w", *benchPath, err)
		}
		found := false
		for _, row := range bench.Campaigns {
			if row.Campaign != "permeability" {
				continue
			}
			found = true
			if row.RunsPlanned != row.RunsExecuted+row.RunsSaved {
				violations = append(violations, fmt.Sprintf(
					"bench: runs_planned %d != runs_executed %d + runs_saved %d",
					row.RunsPlanned, row.RunsExecuted, row.RunsSaved))
			}
			if row.RunsSaved <= 0 {
				violations = append(violations,
					fmt.Sprintf("bench: runs_saved %d, want > 0", row.RunsSaved))
			}
			if row.Runs != row.RunsExecuted {
				violations = append(violations, fmt.Sprintf(
					"bench: runs %d != runs_executed %d", row.Runs, row.RunsExecuted))
			}
		}
		if !found {
			violations = append(violations, "bench: no permeability row")
		}
	}

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "adaptcheck:", v)
		}
		return fmt.Errorf("%d violation(s)", len(violations))
	}

	fmt.Printf("adaptcheck: %d edges agree within z=%.2f Wilson intervals (max estimate delta %.4f)\n",
		len(adaptive.Edges), *z, maxDelta)
	fmt.Printf("adaptcheck: adaptive executed %d of %d planned runs (%d saved, %.1f%%)\n",
		adaptive.TotalRuns, adaptive.PlannedRuns, adaptive.PlannedRuns-adaptive.TotalRuns,
		100*float64(adaptive.PlannedRuns-adaptive.TotalRuns)/float64(adaptive.PlannedRuns))
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// runAnalytic validates the analytic solver against the tree-based
// reference and the Monte Carlo estimator, plus (with -bench) the
// timing rows of place -bench-out.
func runAnalytic(benchPath string) error {
	var violations []string

	// 1. Placement-ranking equivalence on the paper's matrix: the
	// analytic profile must rank every metric byte-identically to the
	// tree-based reference, and the values themselves must agree.
	p := paper.Table1()
	ref, err := core.BuildProfile(p)
	if err != nil {
		return err
	}
	got, err := analytic.New().Profile(p)
	if err != nil {
		return err
	}
	for _, m := range []core.Metric{core.ByExposure, core.ByImpact, core.ByCriticality} {
		r, g := ref.Ranked(m), got.Ranked(m)
		if len(r) != len(g) {
			violations = append(violations, fmt.Sprintf("%s ranking: %d vs %d signals", m, len(r), len(g)))
			continue
		}
		for i := range r {
			if r[i].Signal != g[i].Signal {
				violations = append(violations, fmt.Sprintf(
					"%s ranking diverges at #%d: tree %s, analytic %s", m, i+1, r[i].Signal, g[i].Signal))
				break
			}
		}
	}
	for _, sp := range ref.Signals() {
		asp, err := got.Signal(sp.Signal)
		if err != nil {
			return err
		}
		if sp.Exposure != asp.Exposure {
			violations = append(violations, fmt.Sprintf(
				"%s: exposure %v != %v (must be bit-equal)", sp.Signal, asp.Exposure, sp.Exposure))
		}
		if d := abs(sp.Criticality - asp.Criticality); d > 1e-9 {
			violations = append(violations, fmt.Sprintf(
				"%s: criticality differs by %.3g (tree %v, analytic %v)", sp.Signal, d, sp.Criticality, asp.Criticality))
		}
	}

	// 2. Cyclic fixture: fixpoint impacts vs Monte Carlo, within the
	// documented tolerance and never below (FKG overestimate).
	csys, cp := analytic.CyclicFixture()
	eng := analytic.New()
	const mcSamples = 200_000
	maxDelta := 0.0
	for _, s := range csys.SignalIDs() {
		if s == "in" {
			continue
		}
		fix, err := eng.Impact(cp, "in", s)
		if err != nil {
			return err
		}
		mc, err := core.MonteCarloImpact(cp, "in", s, mcSamples, 1)
		if err != nil {
			return err
		}
		d := fix - mc
		if d < -0.004 { // 3σ of the MC estimator at 200k samples
			violations = append(violations, fmt.Sprintf(
				"cyclic in->%s: fixpoint %.4f below Monte Carlo %.4f", s, fix, mc))
		}
		if abs(d) > analytic.CyclicTolerance {
			violations = append(violations, fmt.Sprintf(
				"cyclic in->%s: |fixpoint %.4f - Monte Carlo %.4f| exceeds tolerance %.2f",
				s, fix, mc, analytic.CyclicTolerance))
		}
		if abs(d) > maxDelta {
			maxDelta = abs(d)
		}
	}

	// 3. Performance contract over the rows place -bench-out wrote.
	if benchPath != "" {
		if more, err := auditAnalyticBench(benchPath); err != nil {
			return err
		} else {
			violations = append(violations, more...)
		}
	}

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "adaptcheck:", v)
		}
		return fmt.Errorf("%d violation(s)", len(violations))
	}
	fmt.Println("adaptcheck: analytic rankings byte-identical to tree-based reference on the arrestment matrix")
	fmt.Printf("adaptcheck: cyclic fixpoint within %.3f of Monte Carlo (tolerance %.2f) on %s\n",
		maxDelta, analytic.CyclicTolerance, csys.Name())
	if benchPath != "" {
		fmt.Printf("adaptcheck: solver timing rows in %s meet the performance contract\n", benchPath)
	}
	return nil
}

// auditAnalyticBench checks the solver timing rows: ranking + sweep
// under 50 ms/op and ≥100× faster than the permeability campaign, and
// incremental re-analysis ≥10× faster than a cold solve.
func auditAnalyticBench(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bench benchDoc
	if err := json.Unmarshal(data, &bench); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rows := make(map[string]benchRow, len(bench.Campaigns))
	for _, row := range bench.Campaigns {
		rows[row.Campaign] = row
	}
	perOp := func(name string) (float64, bool) {
		row, ok := rows[name]
		if !ok || row.Runs <= 0 {
			return 0, false
		}
		return row.WallS / float64(row.Runs), true
	}

	var violations []string
	rank, okRank := perOp("analytic-rank")
	sweep, okSweep := perOp("analytic-sweep")
	if !okRank || !okSweep {
		violations = append(violations, fmt.Sprintf(
			"%s: missing analytic-rank / analytic-sweep rows (run place -bench-out)", path))
	} else {
		if rank+sweep > 0.05 {
			violations = append(violations, fmt.Sprintf(
				"ranking + sweep takes %.1f ms/op, want < 50 ms", (rank+sweep)*1e3))
		}
		if camp, ok := rows["permeability"]; !ok {
			violations = append(violations, fmt.Sprintf(
				"%s: no permeability campaign row — benchmark with place -source measure", path))
		} else if (rank+sweep)*100 > camp.WallS {
			violations = append(violations, fmt.Sprintf(
				"ranking + sweep (%.1f ms) is not 100× faster than the %.1f ms permeability campaign",
				(rank+sweep)*1e3, camp.WallS*1e3))
		}
	}
	cold, okCold := perOp("analytic-cold")
	incr, okIncr := perOp("analytic-incremental")
	if !okCold || !okIncr {
		violations = append(violations, fmt.Sprintf(
			"%s: missing analytic-cold / analytic-incremental rows", path))
	} else if incr*10 > cold {
		violations = append(violations, fmt.Sprintf(
			"incremental re-analysis (%.2f ms/op) is not 10× faster than a cold solve (%.2f ms/op)",
			incr*1e3, cold*1e3))
	}
	return violations, nil
}

// auditTargets resolves a -target list; an empty list selects every
// registered target, or every non-arrestment one with withDefault
// false.
func auditTargets(targetList string, withDefault bool) ([]string, error) {
	var names []string
	for _, n := range strings.Split(targetList, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if names == nil {
		for _, n := range sut.Names() {
			if withDefault || n != sut.DefaultTarget {
				names = append(names, n)
			}
		}
	}
	for _, n := range names {
		if _, err := sut.Lookup(n); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// runLiveness audits the adaptive def/use pruning on the requested
// targets: every sampled masked classification must be proved by a
// witness run that matches the golden trace exactly.
func runLiveness(targetList string, perClass int, seed int64) error {
	names, err := auditTargets(targetList, false)
	if err != nil {
		return err
	}

	failed := false
	for _, n := range names {
		opts, err := experiment.DefaultOptionsFor(n, seed)
		if err != nil {
			return err
		}
		opts.Workers = 1
		res, err := experiment.AuditLiveness(context.Background(), opts, perClass)
		if err != nil {
			return err
		}
		fmt.Printf("adaptcheck: %s: %d/%d RAM and %d/%d stack targets masked over %d case(s), %d witness run(s)\n",
			res.Target, res.RAMMasked, res.RAMTargets*res.Cases, res.StackMasked, res.StackTargets*res.Cases,
			res.Cases, res.Proofs)
		if len(res.Violations) > 0 {
			failed = true
			for _, v := range res.Violations {
				fmt.Fprintf(os.Stderr, "adaptcheck: %s: %s\n", res.Target, v)
			}
			continue
		}
		fmt.Printf("adaptcheck: %s: every witness matched its golden trace — pruning is sound\n", res.Target)
	}
	if failed {
		return fmt.Errorf("liveness audit found pruning violations")
	}
	return nil
}

// runFork audits checkpoint-and-fork permeability runs on the requested
// targets: every sampled forked run must reach the outcome of its
// full-horizon replay from power-on.
func runFork(targetList string, perCase int, seed int64) error {
	names, err := auditTargets(targetList, true)
	if err != nil {
		return err
	}
	failed := false
	for _, n := range names {
		opts, err := experiment.DefaultOptionsFor(n, seed)
		if err != nil {
			return err
		}
		opts.Workers = 1
		res, err := experiment.AuditFork(context.Background(), opts, perCase)
		if err != nil {
			return err
		}
		exits := make([]string, 0, len(res.Exits))
		for name, k := range res.Exits {
			exits = append(exits, fmt.Sprintf("%s %d", name, k))
		}
		sort.Strings(exits)
		fmt.Printf("adaptcheck: %s: %d run(s), %d active; exits: %s; simulated %.3f of the full-horizon ms\n",
			res.Target, res.Runs, res.Active, strings.Join(exits, ", "),
			float64(res.ForkedSimMs)/float64(res.FullSimMs))
		if len(res.Mismatches) > 0 {
			failed = true
			for _, m := range res.Mismatches {
				fmt.Fprintf(os.Stderr, "adaptcheck: %s: %s\n", res.Target, m)
			}
			continue
		}
		fmt.Printf("adaptcheck: %s: 0 mismatches — every forked run matched its full-horizon replay\n", res.Target)
	}
	if failed {
		return fmt.Errorf("fork audit found mismatching outcomes")
	}
	return nil
}
