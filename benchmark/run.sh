#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run it from the
# repository root:
#
#   bash benchmark/run.sh --workload edge-local --seed 1 --seconds 24 --trace 0
#
# Build output, the Go build cache and span files stay under .bench_build.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd benchmark && go build -o "$build/cdnbench" .)
exec "$build/cdnbench" "$@"
