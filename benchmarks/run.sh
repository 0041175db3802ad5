#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's source and runs it
# with the arguments given. Run from the repository root:
#
#   bash benchmarks/run.sh --workload alexnet_wr --seed 1 --seconds 15 --trace 0
#
# Everything the build leaves behind (binary and Go build cache) stays in
# .bench_build/ inside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d benchmarks/e2e ]; then
	echo "benchmarks/run.sh: run from the root of a full checkout (go.mod and benchmarks/e2e are needed)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/e2e" ./benchmarks/e2e
exec "$build/e2e" "$@"
