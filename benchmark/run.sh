#!/usr/bin/env bash
# Builds and runs the benchmark from source, keeping everything the go
# tool and the benchmark write inside the checkout: the build cache
# under .bench_build/, cluster data and traces under benchmark/out/.
#
#   bash benchmark/run.sh --workload write_paced --seed 1 --seconds 20 --trace 0
#
# It fails without printing a result when the repository's sources are
# not there, because the module in this directory builds against them.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
root="$(cd .. && pwd)"
export GOCACHE="$root/.bench_build/go-cache"
export GOTOOLCHAIN=local GOENV=off GOWORK=off
mkdir -p "$root/.bench_build"
go build -o "$root/.bench_build/peats-benchmark" .
exec "$root/.bench_build/peats-benchmark" "$@"
