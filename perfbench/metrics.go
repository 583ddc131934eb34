package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd lists the metrics a user of the campaigns sees, measured
// with tracing off. Every workload reports all of them; a "run" is one
// injection run on perm and one placement decision on place (see the
// workload comments in campaign.go and place.go).
var endToEnd = []metricDef{
	{"campaign_s", "s"},
	{"runs_per_s", "runs/s"},
	{"runs_per_s_w1", "runs/s"},
	{"scaling_eff", "ratio"},
	{"setup_s", "s"},
	{"cpu_ms_per_run", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of single layers (one module each), from a
// traced run. A layer that a workload does not execute reads 0 there:
// perm's traced run measures every layer but analytic and core, place's
// only those two. The decision latency percentiles of place are here,
// not end to end: a campaign makes one decision per invocation, far too
// few for a p99, and every end-to-end metric must hold on every
// workload.
var perLayer = []metricDef{
	{"sut.acquire_us", "us"},
	{"sched.sim_ms_per_run", "sim_ms"},
	{"sched.host_ns_per_sim_ms", "ns/sim_ms"},
	{"physics.step_ns", "ns"},
	{"fi.hook_ns_per_sim_ms", "ns/sim_ms"},
	{"trace.record_ns_per_sim_ms", "ns/sim_ms"},
	{"trace.compare_us_per_run", "us"},
	{"ea.bank_ns_per_sim_ms", "ns/sim_ms"},
	{"failure.classify_us", "us"},
	{"experiment.golden_ms", "ms"},
	{"experiment.golden_trace_bytes", "bytes"},
	{"experiment.golden_misses", "count"},
	{"experiment.runs_executed", "count"},
	{"experiment.runs_saved_frac", "ratio"},
	{"experiment.rounds", "count"},
	{"experiment.allocs_per_run", "count"},
	{"experiment.alloc_bytes_per_run", "bytes"},
	{"experiment.gc_cpu_frac", "ratio"},
	{"campaign.plan_ms", "ms"},
	{"campaign.reduce_ms", "ms"},
	{"campaign.shards_nonempty", "count"},
	{"campaign.shard_runs_max_over_mean", "ratio"},
	{"campaign.shard_n", "count"},
	{"campaign.shard_p50_ms", "ms"},
	{"campaign.shard_p99_ms", "ms"},
	{"campaign.shard_max_ms", "ms"},
	{"campaign.bench_shard_p50_ms", "ms"},
	{"campaign.bench_shard_p99_ms", "ms"},
	{"campaign.worker_idle_frac", "ratio"},
	{"campaign.tail_ms", "ms"},
	{"campaign.busy_ms_per_run", "ms"},
	{"campaign.busy_ms_per_run_w1", "ms"},
	{"dispatch.queue_ms_per_shard", "ms"},
	{"dispatch.exec_ms_per_shard", "ms"},
	{"dispatch.net_ms_per_shard", "ms"},
	{"dispatch.worker_golden_hits", "count"},
	{"dispatch.shard_retries", "count"},
	{"analytic.profile_ms", "ms"},
	{"analytic.incremental_ms", "ms"},
	{"analytic.sweep_ms", "ms"},
	{"analytic.row_hit_ratio", "ratio"},
	{"core.select_us", "us"},
	{"decision_p50_ms", "ms"},
	{"decision_p99_ms", "ms"},
	{"obs.overhead_frac", "ratio"},
	{"campaign.unexplained_frac", "ratio"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs checks metric names and units against the benchmark
// format: names start with a letter or digit, use at most 64 letters,
// digits, '_', '.' and '-', and appear once; units use at most 16
// letters, digits, '_', '/', '%', '.' and '-'.
func validateDefs(defs []metricDef) error {
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q is not valid", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q is not valid", d.Name, d.Unit)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// benchmarkFile is the part of BENCHMARK.json the benchmark checks itself
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// checkDeclared verifies that BENCHMARK.json in root declares exactly
// the workloads and metrics this program reports, in the same order.
func checkDeclared(root string) error {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		return fmt.Errorf("BENCHMARK.json workloads %v, this program runs %v", names, workloadNames)
	}
	if err := sameDefs("end_to_end", bf.EndToEnd, endToEnd); err != nil {
		return err
	}
	return sameDefs("per_layer", bf.PerLayer, perLayer)
}

func sameDefs(key string, declared, reported []metricDef) error {
	if len(declared) != len(reported) {
		return fmt.Errorf("BENCHMARK.json %s lists %d metrics, this program reports %d", key, len(declared), len(reported))
	}
	for i := range declared {
		if declared[i] != reported[i] {
			return fmt.Errorf("BENCHMARK.json %s[%d] is %s (%s), this program reports %s (%s)", key, i,
				declared[i].Name, declared[i].Unit, reported[i].Name, reported[i].Unit)
		}
	}
	return nil
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect builds the metrics map for defs from values, failing on any
// metric the workload did not produce or any value that is not finite.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if v != v || v > 1e300 || v < -1e300 {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
