#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark:
#
#   bash bench/run.sh --workload paper-ds3 --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh                      # all workloads, human-readable
#
# The binary, the Go build cache, temporary files, traces and results
# all land in .bench_build/ so a run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
