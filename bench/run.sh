#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there, passing every argument through:
#
#   bash bench/run.sh --workload live-flood --seed 1 --seconds 10 --trace 0
#
# The build cache lives inside the checkout too, so nothing outside it is
# written; the first build compiles the standard library and takes a while.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
(cd "$here" && go build -o "$build/spnet-bench" .)
cd "$root"
exec "$build/spnet-bench" "$@"
