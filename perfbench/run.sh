#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Every build and run artifact stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) inside the checkout.
#
#   bash perfbench/run.sh --workload traj-scan --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config" "$build/perfbench"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --out-dir "$build/perfbench" "$@"
