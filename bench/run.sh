#!/usr/bin/env bash
# The benchmark's command: builds the bench program from the checkout's source
# and runs it with the driver's arguments. Run from the repository root.
# Everything the build writes — Go's build cache, its temporary files and the
# binary — stays under .bench_build/ in the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d bench ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
