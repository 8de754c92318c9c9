#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it. Run
# from the repository root; every argument goes to the perfbench binary:
#
#   bash perfbench/run.sh --workload gups-hemem --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache, the go command's own config and
# telemetry files, and run artifacts (spans, CPU profiles, fingerprints)
# all stay under CARGO_TARGET_DIR (default .bench_build) inside the
# checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache
export GOMODCACHE=$build/gomodcache
export GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build/perfbench-out" "$@"
