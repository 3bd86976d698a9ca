#!/usr/bin/env bash
# The driver's entry point, run from the checkout root:
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# It is `go run -C bench . "$@"` with everything the Go toolchain writes
# (build cache, scratch directory, module cache, telemetry counters) kept
# under .bench_build/ in the checkout, so a run reads and writes nothing
# outside it. The first run in a checkout therefore compiles the standard
# library too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"
exec go run -C "$root/bench" . "$@"
