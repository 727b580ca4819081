#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload rig --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --trace 1
#
# Run it from the root of the checkout. Build outputs, the Go build cache
# and traced-run artifacts all stay under .bench_build in that root.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --trace-dir "$build/trace" "$@"
