#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source inside
# the checkout and runs it. Everything the Go toolchain and the harness write
# (build cache, temp files, binaries, results) stays under the checkout:
# .bench_build/ and bench/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/igqbench" .
cd "$root"
exec "$build/igqbench" "$@"
