#!/usr/bin/env bash
# Builds the benchmark against this checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   bash benchmark/run.sh --workload vf-scale --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (binary, Go build cache, Go
# config, traces) stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C benchmark build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
