#!/usr/bin/env bash
# Builds the service benchmark from the sources in this checkout and runs it
# with the given arguments (see perfbench/README.md). Run from the repository
# root: bash perfbench/run.sh --workload cold-mix --seed 1 --seconds 30 --trace 0
#
# The Go build cache, configuration and module cache live under .bench_build
# in the checkout, so building and running read and write nothing outside it.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
export PERFBENCH_WORKDIR="$build"
exec "$build/perfbench" "$@"
