#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the harness from source inside the
# checkout and runs it with the arguments given, e.g.
#
#   bash benchmark/run.sh --workload quick_1core --seed 1 --seconds 25 --trace 0
#
# The binary and Go's build cache go to .bench_build/ under the repo root, so
# the benchmark reads and writes nothing outside its checkout. The first build
# in a checkout compiles the standard library too (about 10 s); later ones are
# no-ops. `go run ./benchmark ...` does the same with the user's own cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ] || [ ! -d internal/bench ]; then
	echo "benchmark/run.sh: benchmark/ is not inside a checkout of module gamma: nothing to measure" >&2
	exit 1
fi
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOFLAGS=-buildvcs=false
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
