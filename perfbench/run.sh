#!/usr/bin/env bash
# Builds the perfbench driver from this checkout's sources and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload gate-quick --seed 2013 --seconds 30 --trace 0
#
# Everything the build and the benchmark write (binary, Go build cache,
# temporary files, farm stores, the layer trajectory) stays under
# .bench_build/ in the repository root.
set -euo pipefail
work="$PWD/.bench_build"
mkdir -p "$work/tmp" "$work/home"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" TMPDIR="$work/tmp" \
	HOME="$work/home" XDG_CONFIG_HOME="$work/home/.config" XDG_CACHE_HOME="$work/home/.cache" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$work/perfbench" .
exec "$work/perfbench" "$@"
