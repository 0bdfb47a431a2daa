#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload rubble-steady --seed 1 --seconds 15 --trace 0
#
# The Go build and module caches live under .bench_build too, so a run
# writes nothing outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
