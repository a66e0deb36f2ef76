#!/usr/bin/env bash
# Builds btbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/btbench/run.sh --workload office --seed 3 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, temporary files, the
# binary) stays under .bench_build/ in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go build -C bench/btbench -o "$build/btbench" .
exec "$build/btbench" "$@"
