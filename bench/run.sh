#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs it from the
# repository root. Every argument is passed through (see bench/README.md):
#
#   bash bench/run.sh                                   # all four workloads
#   bash bench/run.sh --workload ingest-single --seed 3 --seconds 10 --trace 0
#   bash bench/run.sh -compare bench/out/a/*.json -- bench/out/b/*.json
#
# The Go build cache, temporary files and binaries stay inside the checkout
# under .bench_build, so a run reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
if [ ! -f go.mod ] || [ ! -d cmd/infoshieldd ]; then
	echo "bench: $root holds no InfoShield source tree (go.mod, cmd/infoshieldd)" >&2
	exit 2
fi
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" -root "$root" -build "$build" "$@"
