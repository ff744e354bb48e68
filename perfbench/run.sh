#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 25 --trace 0
#
# Every build artefact, the Go build cache and the workloads' scratch data
# stay under .bench_build at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
