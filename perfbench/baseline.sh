#!/usr/bin/env bash
# Measures the baseline of the checkout it is started in: every workload
# untraced at seeds 1..10 and traced once at seed 1, with
# BENCHMARK.json's run_seconds, then writes perfbench/baseline.json:
# per workload, the median, quartiles and spread of each end-to-end
# metric, the traced run's per-layer metrics and the Serial output
# digest of each seed, under the machine and build descriptor of the
# runs. Run it from the root of a checkout:
#
#   bash perfbench/baseline.sh
#
# The raw run outputs stay in .bench_build/baseline-runs.txt.
set -euo pipefail

runs=10
seconds=$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')
out=.bench_build/baseline-runs.txt
mkdir -p .bench_build
: > "$out"
for w in perm place; do
	for s in $(seq 1 "$runs"); do
		bash perfbench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 >> "$out"
	done
	bash perfbench/run.sh --workload "$w" --seed 1 --seconds "$seconds" --trace 1 >> "$out"
done
.bench_build/bin/perfbench summarize < "$out" > perfbench/baseline.json
