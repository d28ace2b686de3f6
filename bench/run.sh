#!/usr/bin/env bash
# Builds the benchmark harness from this checkout's sources and runs it with
# the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload opimc --seed 1 --seconds 20 --trace 0
#
# Every build artifact, cache and temporary file stays under .bench_build/
# in the checkout, and no module or toolchain is ever downloaded.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command's env file and telemetry counters live under the user
# configuration directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd bench && go build -o "$out/opimbench" .)
exec "$out/opimbench" "$@"
