#!/usr/bin/env bash
# Builds the GSF benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload sizing35 --seed 1 --seconds 35 --trace 0
#
# Run from the repository root. Every build artifact (Go build cache,
# module cache, toolchain state, the binary) stays under the build
# directory, $CARGO_TARGET_DIR or .bench_build by default.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d internal ]]; then
	echo "perfbench: run from the GSF repository root (go.mod and internal/ not found)" >&2
	exit 2
fi

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out=$root/$out
mkdir -p "$out/gocache" "$out/gomodcache" "$out/home" "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOTOOLCHAIN=local GOENV=off GOPROXY=off GOWORK=off CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
