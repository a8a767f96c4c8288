#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root, e.g.
#
#   bash perfbench/run.sh --workload perm-ndp --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache live under .bench_build (or
# $CARGO_TARGET_DIR when set) inside the checkout, so nothing is written
# outside it. Without the simulator sources next to perfbench/ the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
