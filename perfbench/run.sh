#!/usr/bin/env bash
# Builds the benchmark program and the campaign CLI (cmd/reproduce) from
# the checkout it is started in, then runs the benchmark.
#
# Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload perm --seed 1 --seconds 50 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the
# checkout: the Go build cache, temporary files and the binaries.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/go-cache" "$out/tmp"

export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off

go build -o "$out/bin/" ./cmd/reproduce >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
