#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs one workload:
#
#   bash bench/run.sh --workload read-only --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays inside the checkout, under
# .bench_build/ and bench/bin/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
# The go command keeps its env file and telemetry counters under the
# user's config directory; point that inside the checkout as well.
XDG_CONFIG_HOME="$build/config" go build -o bench/bin/bench ./bench
exec bench/bin/bench "$@"
