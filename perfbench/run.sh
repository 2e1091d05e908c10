#!/usr/bin/env bash
# Builds the benchmark and the cmd/serve binary from source, then runs the
# benchmark with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload paper-table --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artifact, the Go build cache
# and the benchmark's scratch files stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the current directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOWORK=off GOFLAGS= GOTOOLCHAIN=local

cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/serve" altroute/cmd/serve
cd "$root"
exec "$out/perfbench" -serve-bin "$out/serve" -work-dir "$out" "$@"
