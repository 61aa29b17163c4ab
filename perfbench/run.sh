#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload bulk-seq|meta-small|scale-mux --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, the binary, and the traced run's
# spans, trace summary and CPU profile (.bench_build/perfbench-trace/).
# Nothing is downloaded: the benchmark module depends only on the
# repository module next to it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-trace" "$@"
