package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// traceCampaign is the traced run of the campaign workload. It runs the
// layer probe in a child process and a traced 1-worker pass (the Serial
// reference), then rounds of three nproc passes until the run's time is
// up: an untraced and a traced in-process pass, in alternating order
// from one round to the next so that neither always runs second, and a
// traced pass through -dispatch subprocess workers. The in-process span
// logs give the shard, plan and reduce layers, and each in-process pair
// one sample of the tracing overhead; the dispatched span logs give the
// dispatch layer.
func (d *runner) traceCampaign(ctx context.Context) (result, []string, error) {
	vals := zeroLayers()
	probe, err := d.runProbe(ctx)
	if err != nil {
		return result{}, nil, fmt.Errorf("layer probe: %w", err)
	}
	for k, v := range probe {
		vals[k] = v
	}

	g := d.gate
	w1, err := d.pass(ctx, perm, 1, true)
	var spans1 spanStats
	if err == nil {
		spans1, err = readSpans(w1.EventsLog, 1)
	}
	if !g.check("traced 1-worker pass", w1.Digest, err) {
		return result{}, g.problems, fmt.Errorf("the traced 1-worker pass failed")
	}
	var untraced, traced, dispatched []invocation
	var spansN, spansD []spanStats
	tracedPass := func(spec campaignSpec, what string) (invocation, spanStats, bool) {
		inv, err := d.pass(ctx, spec, d.nproc, true)
		var st spanStats
		if err == nil {
			st, err = readSpans(inv.EventsLog, d.nproc)
		}
		return inv, st, g.check(what, inv.Digest, err)
	}
	for pace := newPacer(d.seconds); pace.more(len(dispatched) > 0) && g.failed < maxFailures; {
		var u, t invocation
		var stN spanStats
		untracedN := func() bool {
			u, err = d.pass(ctx, perm, d.nproc, false)
			return g.check("untraced pass", u.Digest, err)
		}
		tracedN := func() bool {
			var ok bool
			t, stN, ok = tracedPass(perm, "traced pass")
			return ok
		}
		first, second := untracedN, tracedN
		if len(traced)%2 == 1 {
			first, second = tracedN, untracedN
		}
		if !first() || !second() {
			continue
		}
		untraced, traced = append(untraced, u), append(traced, t)
		spansN = append(spansN, stN)
		if v, stD, ok := tracedPass(permDispatch, "dispatched traced pass"); ok {
			dispatched, spansD = append(dispatched, v), append(spansD, stD)
		}
	}
	if len(dispatched) == 0 {
		return result{}, g.problems, fmt.Errorf("no traced round succeeded")
	}

	layersFromSpans(vals, spansN, spans1, d.nproc)
	dispatchLayers(vals, spansD)
	var campU, overhead, bp50, bp99 []float64
	for i := range traced {
		campU = append(campU, untraced[i].campaignS())
		overhead = append(overhead, traced[i].campaignS()/untraced[i].campaignS()-1)
		row := largestRow(traced[i].Bench)
		bp50 = append(bp50, row.ShardP50Ms)
		bp99 = append(bp99, row.ShardP99Ms)
	}
	var retries []float64
	for _, v := range dispatched {
		var r int64
		for _, c := range v.Bench.Campaigns {
			r += c.ShardRetries
		}
		retries = append(retries, float64(r))
	}
	vals["obs.overhead_frac"] = median(overhead)
	vals["campaign.bench_shard_p50_ms"] = median(bp50)
	vals["campaign.bench_shard_p99_ms"] = median(bp99)
	vals["dispatch.shard_retries"] = median(retries)

	b := untraced[len(untraced)-1].Bench
	planned, saved := 0, 0
	for _, c := range b.Campaigns {
		planned += c.RunsPlanned
		saved += c.RunsSaved
	}
	vals["experiment.runs_executed"] = float64(b.runsExecuted())
	vals["experiment.runs_saved_frac"] = float64(saved) / float64(planned)
	vals["experiment.rounds"] = float64(spansN[len(spansN)-1].Campaigns)
	vals["experiment.golden_misses"] = float64(b.GoldenCache.Misses)

	rec := reconcile(vals, median(campU)*1000, d.nproc)
	vals["campaign.unexplained_frac"] = rec.unexplained
	notes := []string{
		shardNote(vals),
		overheadNote(overhead),
		rec.String(),
		fmt.Sprintf("untraced/traced pairs measured: %d; dispatched traced passes: %d", len(traced), len(dispatched)),
	}

	metrics, err := collect(perLayer, vals)
	if err != nil {
		return result{}, g.problems, err
	}
	return result{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: metrics}, append(notes, g.problems...), nil
}

// shardNote sets the exact shard percentiles beside the -bench-out
// bucket values of the same passes. Below 100 spans the nearest-rank
// p99 is the largest span, so the note says so instead of comparing it
// with the bucketed p99 as a like quantity.
func shardNote(v map[string]float64) string {
	n := int(v["campaign.shard_n"])
	p99 := fmt.Sprintf("p99 %.0f ms", v["campaign.shard_p99_ms"])
	if n < 100 {
		p99 = fmt.Sprintf("p99 = max (n < 100) %.0f ms", v["campaign.shard_max_ms"])
	}
	return fmt.Sprintf("shard percentiles, exact from %d raw spans: p50 %.0f ms, %s, max %.0f ms; the same passes' -bench-out buckets: p50 %.1f ms, p99 %.1f ms",
		n, v["campaign.shard_p50_ms"], p99, v["campaign.shard_max_ms"],
		v["campaign.bench_shard_p50_ms"], v["campaign.bench_shard_p99_ms"])
}

// overheadNote states the tracing overhead with the pairs it rests on.
// A negative median means the traced passes were not slower than the
// untraced ones: the tracing cost is unresolved on this host, and the
// figure is not a saving.
func overheadNote(overhead []float64) string {
	per := make([]string, len(overhead))
	for i, o := range overhead {
		per[i] = fmt.Sprintf("%.3f", o)
	}
	what := "tracing overhead"
	if median(overhead) < 0 {
		what = "tracing overhead unresolved, traced passes were not slower"
	}
	return fmt.Sprintf("%s: median traced/untraced − 1 is %.3f over %d pairs (%s)",
		what, median(overhead), len(overhead), strings.Join(per, ", "))
}

// zeroLayers starts every per-layer metric at 0: a layer the workload
// does not execute reads 0.
func zeroLayers() map[string]float64 {
	vals := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		vals[m.Name] = 0
	}
	return vals
}

func readSpans(path string, workers int) (spanStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return spanStats{}, err
	}
	defer f.Close()
	return analyzeSpans(f, workers)
}

// largestRow is the report row with the most executed runs.
func largestRow(b benchReport) benchRow {
	var best benchRow
	for _, c := range b.Campaigns {
		if c.RunsExecuted > best.RunsExecuted {
			best = c
		}
	}
	return best
}

// layersFromSpans fills the shard, plan and reduce layers from the
// traced in-process nproc passes (and the busy time per run of the
// traced 1-worker pass). Shard percentiles are exact: nearest-rank over
// the raw span durations of every traced nproc pass.
func layersFromSpans(vals map[string]float64, spansN []spanStats, spans1 spanStats, workers int) {
	var plan, reduce, idle, tail, busy, shards []float64
	for _, st := range spansN {
		plan = append(plan, st.PlanMs)
		reduce = append(reduce, st.ReduceMs)
		idle = append(idle, 1-st.BusyMs/(float64(workers)*st.ExecMs))
		tail = append(tail, st.TailMs)
		busy = append(busy, st.BusyMs/float64(st.Runs))
		shards = append(shards, st.ShardMs...)
	}
	last := spansN[len(spansN)-1]
	vals["campaign.plan_ms"] = median(plan)
	vals["campaign.reduce_ms"] = median(reduce)
	vals["campaign.worker_idle_frac"] = median(idle)
	vals["campaign.tail_ms"] = median(tail)
	vals["campaign.busy_ms_per_run"] = median(busy)
	vals["campaign.busy_ms_per_run_w1"] = spans1.BusyMs / float64(spans1.Runs)
	vals["campaign.shards_nonempty"] = float64(last.ShardsNonempty)
	vals["campaign.shard_runs_max_over_mean"] = last.MaxOverMean
	vals["campaign.shard_n"] = float64(len(shards))
	vals["campaign.shard_p50_ms"] = nearestRank(shards, 0.50)
	vals["campaign.shard_p99_ms"] = nearestRank(shards, 0.99)
	vals["campaign.shard_max_ms"] = maxOf(shards)
}

// dispatchLayers fills the dispatch layer from the traced passes through
// -dispatch subprocess workers: queue, exec and net time per dispatched
// shard and the worker golden-cache hits, medians over the passes.
func dispatchLayers(vals map[string]float64, spansD []spanStats) {
	var queue, exec, net, hits []float64
	for _, st := range spansD {
		if st.DispatchShards == 0 {
			continue
		}
		n := float64(st.DispatchShards)
		queue = append(queue, st.QueueMs/n)
		exec = append(exec, st.ExecShardMs/n)
		net = append(net, st.NetMs/n)
		hits = append(hits, float64(st.GoldenHits))
	}
	if len(queue) > 0 {
		vals["dispatch.queue_ms_per_shard"] = median(queue)
		vals["dispatch.exec_ms_per_shard"] = median(exec)
		vals["dispatch.net_ms_per_shard"] = median(net)
		vals["dispatch.worker_golden_hits"] = median(hits)
	}
}

// reconciliation is the layer model of a campaign's wall time.
type reconciliation struct {
	goldenMs, planMs, reduceMs, runMs, tailMs float64
	runs                                      float64
	predictedMs, measuredMs, unexplained      float64
}

// reconcile predicts campaign_s from the layer figures and compares it
// with the measured untraced campaign_s (ms) of the in-process
// permeability campaign:
//
//	predicted = golden + plan + reduce + (runs × per-run + (w−1) × tail) / w
//	per-run   = acquire + sim_ms × (host + fi + record) + compare
//
// The campaign's timer covers its golden runs, planning and reduction;
// golden runs spread over the w workers like injection runs. The EA
// bank and failure classification, which the probe also measures, are
// not in a permeability run and not in the model. During the tail at least one of w
// workers idles while the last shards finish; the idle worker-time
// (w−1) × tail, spread over w, is what the tail adds to the wall time
// beyond the runs' own work.
func reconcile(v map[string]float64, measuredMs float64, workers int) reconciliation {
	w := float64(workers)
	r := reconciliation{
		goldenMs:   v["experiment.golden_misses"] * v["experiment.golden_ms"] / w,
		planMs:     v["campaign.plan_ms"],
		reduceMs:   v["campaign.reduce_ms"],
		tailMs:     v["campaign.tail_ms"],
		runs:       v["experiment.runs_executed"],
		measuredMs: measuredMs,
	}
	perSimMs := v["sched.host_ns_per_sim_ms"] + v["fi.hook_ns_per_sim_ms"] + v["trace.record_ns_per_sim_ms"]
	r.runMs = v["sut.acquire_us"]/1e3 + v["sched.sim_ms_per_run"]*perSimMs/1e6 + v["trace.compare_us_per_run"]/1e3
	r.predictedMs = r.goldenMs + r.planMs + r.reduceMs + (r.runs*r.runMs+(w-1)*r.tailMs)/w
	r.unexplained = 1 - r.predictedMs/r.measuredMs
	return r
}

func (r reconciliation) String() string {
	return fmt.Sprintf("reconciliation: predicted %.0f ms = golden %.0f + plan %.0f + reduce %.0f + (%.0f runs × %.3f ms + tail share of %.0f ms) / workers; measured %.0f ms; unexplained %.3f",
		r.predictedMs, r.goldenMs, r.planMs, r.reduceMs, r.runs, r.runMs, r.tailMs, r.measuredMs, r.unexplained)
}

// runProbe runs the layer probe in a child process of this binary, so
// its measurements start from a fresh heap and rig pool.
func (d *runner) runProbe(ctx context.Context) (map[string]float64, error) {
	out, _, err := d.child(ctx, "probe")
	if err != nil {
		return nil, err
	}
	var vals map[string]float64
	if err := json.Unmarshal(out, &vals); err != nil {
		return nil, fmt.Errorf("probe output: %w", err)
	}
	return vals, nil
}

// child runs this binary in a sub-mode and returns its standard output
// and resource usage.
func (d *runner) child(ctx context.Context, mode string, args ...string) ([]byte, usage, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, usage{}, err
	}
	args = append([]string{mode, "-seed", strconv.FormatInt(d.seed, 10)}, args...)
	var stdout, stderr bytes.Buffer
	use, err := runProcess(ctx, d.work, self, args, &stdout, &stderr)
	if err != nil {
		return nil, use, fmt.Errorf("%s: %w\n%s", mode, err, tail(stderr.Bytes(), 2000))
	}
	return stdout.Bytes(), use, nil
}
