#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash bench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ in the checkout; the program itself writes only under
# bench/out/. The first call compiles (~1 min cold); later calls reuse the
# cache and cost about a second.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off
go build -C bench -o "$build/ritm-bench" .
exec "$build/ritm-bench" "$@"
