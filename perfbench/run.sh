#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload scale-mapped --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go caches, the binary, generated inputs, traces) stays under the
# build directory, $CARGO_TARGET_DIR or .bench_build by default.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export CARGO_TARGET_DIR="$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" GOTMPDIR=""
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
