#!/usr/bin/env bash
# Builds the benchmark from source in the current checkout and runs it:
#
#   bash _perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there, including the Go build cache.
set -euo pipefail
build=.bench_build
mkdir -p "$build"
here=$(pwd)
export GOCACHE="$here/$build/gocache" GOPATH="$here/$build/gopath" XDG_CONFIG_HOME="$here/$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOWORK=off
go build -C _perfbench -buildvcs=false -o "$here/$build/perfbench" . >&2
exec "$build/perfbench" "$@"
