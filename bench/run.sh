#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it with the given
# arguments, from the repository root this script sits in (relative
# paths in the arguments are relative to that root):
#
#   bash bench/run.sh --workload registry-quick --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh run -all -seed 1 -out base.json
#   bash bench/run.sh compare base.json head.json
#
# Everything the build and the runs leave behind (binary, Go build
# cache, temporary DSE journals, span files) goes under the build
# directory, $CARGO_TARGET_DIR or .bench_build by default, so nothing is
# written outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/go-cache" "$build/tmp"

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-path/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
# The go command keeps its telemetry counters under the user config
# directory.
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOFLAGS=
export GOTOOLCHAIN=local
export BENCH_BUILD_DIR="$build"

(cd bench && go build -o "$build/cryowire-bench" .)
exec "$build/cryowire-bench" "$@"
