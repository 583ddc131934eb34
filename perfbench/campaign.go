package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The campaign workload. Each pass is one closed-loop invocation of a
// campaign CLI from this process; the next starts when the previous has
// exited. A round is a 1-worker pass followed by an nproc-worker pass
// at the same seed, and a run repeats rounds until its time is up.
//
//   - perm: Table 1 permeability, reproduce -mode measured -artifact
//     table1 -quick (adaptive defaults, 25 cases, 1300 runs), 1-worker
//     then nproc-worker in-process. Every run simulates to the golden
//     horizon and is compared against the golden trace.
//
// The 1-worker in-process pass is the Serial reference: every other
// pass of the run must print byte-identical output. The traced run
// also drives the perm plan through -dispatch subprocess workers, for
// the dispatch layer (see traced.go).

// campaignSpec says how a workload invokes its CLI.
type campaignSpec struct {
	cli  string   // binary name
	args []string // campaign arguments, without -workers/-seed/-bench-out
	// dispatch runs the nproc pass through -dispatch subprocess workers.
	dispatch bool
}

var permArgs = []string{"-mode", "measured", "-artifact", "table1", "-quick"}

var (
	perm         = campaignSpec{cli: "reproduce", args: permArgs}
	permDispatch = campaignSpec{cli: "reproduce", args: permArgs, dispatch: true}
)

// minRounds is the fewest rounds a run measures, however short its time.
const minRounds = 2

// maxFailures ends a run early once this many operations have failed.
const maxFailures = 3

// maxRunTime stops starting new passes, so a run on a slow host still
// exits well within its 180 s limit.
const maxRunTime = 130 * time.Second

// runner holds one benchmark run's settings.
type runner struct {
	bin     string // directory holding reproduce and perfbench
	work    string // work directory for reports and span logs
	seed    int64
	seconds int
	nproc   int
	gate    *gate // the run's correctness gate
}

// gate is the correctness gate: every pass's output digest must equal
// the Serial reference digest of the run's seed and, when
// perfbench/baseline.json records one for the workload and seed, that
// recorded digest as well. The recorded digest catches an output change
// that reaches the Serial and the sharded paths alike.
type gate struct {
	pinned            string // recorded Serial digest of this seed, or ""
	ref               string // the run's Serial digest: its first good pass
	attempted, failed int
	problems          []string
}

// check records one operation's outcome against the references.
func (g *gate) check(what, dig string, err error) bool {
	g.attempted++
	var problem string
	switch {
	case err != nil:
		problem = err.Error()
	case g.ref == "":
		g.ref = dig
	}
	switch {
	case problem != "":
	case g.pinned != "" && dig != g.pinned:
		problem = fmt.Sprintf("output digest %.12s differs from the recorded digest %.12s of this seed (perfbench/baseline.json)", dig, g.pinned)
	case dig != g.ref:
		problem = fmt.Sprintf("output digest %.12s differs from the Serial reference %.12s", dig, g.ref)
	}
	if problem == "" {
		return true
	}
	g.failed++
	g.problems = append(g.problems, what+": "+problem)
	return false
}

// pinnedDigest is the Serial output digest perfbench/baseline.json
// records for the workload and seed, or "" when it records none.
func pinnedDigest(root, workload string, seed int64) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "perfbench", "baseline.json"))
	if err != nil {
		return "", err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return "", fmt.Errorf("perfbench/baseline.json: %w", err)
	}
	if w := b.Workloads[workload]; w != nil {
		return w.Digests[strconv.FormatInt(seed, 10)], nil
	}
	return "", nil
}

// pass runs one invocation of spec at the given worker count.
func (d *runner) pass(ctx context.Context, spec campaignSpec, workers int, traced bool) (invocation, error) {
	args := append(append([]string(nil), spec.args...),
		"-workers", strconv.Itoa(workers), "-seed", strconv.FormatInt(d.seed, 10))
	if spec.dispatch {
		args = append(args, "-dispatch")
	}
	return runCLI(ctx, d.work, filepath.Join(d.bin, spec.cli), args, traced)
}

// round is one measured round of passes.
type round struct {
	w1, wn invocation
}

// runRounds measures rounds until the run's time is up (at least
// minRounds), checking every pass against the Serial reference. A round
// with a failed pass is counted by the gate and not measured.
func (d *runner) runRounds(ctx context.Context, spec campaignSpec, g *gate) []round {
	var rounds []round
	for pace := newPacer(d.seconds); pace.more(len(rounds) >= minRounds) && g.failed < maxFailures; {
		w1, err := d.pass(ctx, spec, 1, false)
		if !g.check("1-worker pass", w1.Digest, err) {
			continue
		}
		wn, err := d.pass(ctx, spec, d.nproc, false)
		if g.check(fmt.Sprintf("%d-worker pass", d.nproc), wn.Digest, err) {
			rounds = append(rounds, round{w1: w1, wn: wn})
		}
	}
	return rounds
}

// endToEndCampaign computes the end-to-end metrics of a campaign run
// from its rounds: medians over the passes, so one slow pass on a noisy
// host moves no figure by itself. scaling_eff compares each nproc pass
// with the 1-worker pass of its round. setup_s is taken from the
// 1-worker passes alone: the nproc passes' set-up falls in two clusters
// (about 12 and 18 ms on a 2-vCPU Xeon, against 8 to 14 ms at 1
// worker), and a median over the mixture lands between them.
func endToEndCampaign(rounds []round, nproc int) map[string]float64 {
	var camp, rps, rps1, eff, setup, cpu, rss []float64
	for _, r := range rounds {
		rps1 = append(rps1, r.w1.runsPerS())
		setup = append(setup, r.w1.setupS())
		wn := r.wn
		camp = append(camp, wn.campaignS())
		rps = append(rps, wn.runsPerS())
		eff = append(eff, wn.runsPerS()/(float64(nproc)*r.w1.runsPerS()))
		cpu = append(cpu, float64(wn.Use.CPU.Microseconds())/1000/float64(wn.Bench.runsExecuted()))
		rss = append(rss, wn.Use.RSSMB)
	}
	return map[string]float64{
		"campaign_s":     median(camp),
		"runs_per_s":     median(rps),
		"runs_per_s_w1":  median(rps1),
		"scaling_eff":    median(eff),
		"setup_s":        median(setup),
		"cpu_ms_per_run": median(cpu),
		"peak_rss_mb":    median(rss),
	}
}

// runCampaign is one untraced run of the campaign workload.
func (d *runner) runCampaign(ctx context.Context) (result, []string, error) {
	g := d.gate
	rounds := d.runRounds(ctx, perm, g)
	if len(rounds) == 0 {
		return result{}, g.problems, fmt.Errorf("no round of passes succeeded")
	}
	vals := endToEndCampaign(rounds, d.nproc)
	metrics, err := collect(endToEnd, vals)
	if err != nil {
		return result{}, g.problems, err
	}
	notes := []string{
		fmt.Sprintf("rounds measured: %d", len(rounds)),
		fmt.Sprintf("runs executed per pass: %d", rounds[0].w1.Bench.runsExecuted()),
		fmt.Sprintf("campaign wall per round, 1 worker / %d workers (s): %s", d.nproc, roundWalls(rounds)),
	}
	return result{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: metrics}, append(notes, g.problems...), nil
}

// pacer ends a run's rounds (of passes or of place batches) close to its
// measuring time: once a run has its minimum rounds, another starts only
// if one as long as the longest so far still fits.
type pacer struct {
	start, last     time.Time
	budget, longest time.Duration
}

func newPacer(seconds int) *pacer {
	now := time.Now()
	return &pacer{start: now, last: now, budget: time.Duration(seconds) * time.Second}
}

// more is called before each round; enough says the run already has its
// minimum rounds. No round starts after maxRunTime.
func (p *pacer) more(enough bool) bool {
	now := time.Now()
	if d := now.Sub(p.last); d > p.longest {
		p.longest = d
	}
	p.last = now
	elapsed := now.Sub(p.start)
	if elapsed > maxRunTime {
		return false
	}
	return !enough || elapsed+p.longest <= p.budget
}

func roundWalls(rounds []round) string {
	var b strings.Builder
	for i, r := range rounds {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.3f/%.3f", r.w1.campaignS(), r.wn.campaignS())
	}
	return b.String()
}

// newWorkDir makes a per-process work directory under the checkout's
// build directory.
func newWorkDir(root string) (string, error) {
	dir := filepath.Join(root, ".bench_build", "work", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
