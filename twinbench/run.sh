#!/usr/bin/env bash
# Builds the benchmark program from source and runs it from the checkout
# root, passing every argument through:
#
#   bash twinbench/run.sh --workload cold-replay --seed 1 --seconds 10 --trace 0
#
# The Go build cache and the binary live in .bench_build/ at the root,
# so nothing is read or written outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd "$root/twinbench" && go build -o "$build/twinbench" .)
cd "$root"
exec "$build/twinbench" "$@"
