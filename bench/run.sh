#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): build cdaload, a module
# of its own in bench/, against the checkout this is run in and hand it
# the driver's arguments. The Go build cache, the compiler's scratch
# space, the go command's own config and counter files, the binaries
# and every data dir stay under .bench_build, so a run writes nothing
# outside the checkout.
set -euo pipefail
build=.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$PWD/$build/gocache"
export GOTMPDIR="$PWD/$build/tmp"
export XDG_CONFIG_HOME="$PWD/$build/config"
go build -C bench -o "$PWD/$build/bin/cdaload" ./cdaload
exec "$build/bin/cdaload" -build-dir "$build" "$@"
