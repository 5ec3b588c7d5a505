#!/usr/bin/env bash
# Builds cmd/skyline and the benchmark from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload explore-stream --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$build/skyline" ./cmd/skyline
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -server "$build/skyline" "$@"
