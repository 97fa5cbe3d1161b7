#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload sweep|churn|serve|policy --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything the build and the runs
# write stays under .bench_build/ there: the Go build cache, the binary,
# and each run's record and spans (.bench_build/out/).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/out"

# Keep the toolchain's caches and settings inside the checkout, and
# build offline from the sources present.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" HOME="$build/home"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -out "$build/out" "$@"
