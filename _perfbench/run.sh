#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash _perfbench/run.sh --workload link-kappa --seed 1 --seconds 10 --trace 0
# Run from the repository root. Every file the toolchain or the benchmark
# writes stays under .bench_build/ in the working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/_perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
