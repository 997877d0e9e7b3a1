#!/usr/bin/env bash
# Builds the benchmark and cmd/tracesim from the checkout it is run in,
# then runs the benchmark. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C perfbench -o "$out/bin/perfbench" .
go build -o "$out/bin/tracesim" ./cmd/tracesim
exec "$out/bin/perfbench" -root "$root" -tracesim "$out/bin/tracesim" "$@"
