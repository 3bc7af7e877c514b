#!/usr/bin/env bash
# Builds the host-clock benchmark from source and runs it, passing every
# argument through:
#
#   bash perfbench/run.sh --workload table1-400k --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# traced runs' Chrome traces stay under .bench_build/ and .bench_out/ in
# the current directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
