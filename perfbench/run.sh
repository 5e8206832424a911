#!/usr/bin/env bash
# Builds the benchmark program and the rcaserve/rcagate binaries from
# the checkout's sources, then runs the benchmark with the given flags:
#
#   bash perfbench/run.sh --workload warm-sync --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache
# and per-run scratch (logs, WAL directories, span dumps) all stay
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/rcaserve" || ! -d "$root/cmd/rcagate" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/rcaserve and cmd/rcagate are needed)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache" GOENV=off GOTOOLCHAIN=local GOWORK=off

go build -o "$build/bin/" ./cmd/rcaserve ./cmd/rcagate
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build" "$@"
