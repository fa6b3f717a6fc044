#!/usr/bin/env bash
# Builds cmd/rilperf from source and runs it. Run from the repository
# root, with the benchmark's flags:
#
#   bash cmd/rilperf/run.sh --workload table1-solve --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, the toolchain's config directory and
# the benchmark's scratch state stay under $CARGO_TARGET_DIR (default
# .bench_build) in the working directory. Nothing is downloaded: the
# module has no dependencies outside the repository. Outside a full
# checkout the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$(pwd)/$build ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"

(
	cd "$here"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
	export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
	go build -o "$build/rilperf" .
)
export TMPDIR="$build/tmp"
exec "$build/rilperf" -work "$build/work" "$@"
