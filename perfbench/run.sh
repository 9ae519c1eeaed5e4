#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sim-paper --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the go command's
# own state, the binary and the traced run's spans all go under
# $CARGO_TARGET_DIR, default .bench_build, inside the current directory;
# nothing is fetched. A failed build exits non-zero without printing a
# result.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
build=$(cd "$build" && pwd)
export CARGO_TARGET_DIR="$build"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS="-mod=mod -buildvcs=false" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	go -C "$here" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
