#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g.  bash perfbench/run.sh --workload fig2 --seed 1 --seconds 20 --trace 0
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ there: the Go build cache, the binary, scratch
# files and span dumps.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

go -C "$root/perfbench" build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
