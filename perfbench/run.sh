#!/usr/bin/env bash
# Builds the benchmark from source, then runs one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout. Everything it writes stays there:
# the build in .bench_build, the inputs in a .bench_work.* directory
# that is removed on exit, and traced runs' spans in .bench_traces.
set -euo pipefail
root=$(pwd)
export DUNE_BUILD_DIR="$root/.bench_build" DUNE_CACHE=disabled
dune build --root . --profile release ./perfbench/perfbench.exe >&2
exe="$DUNE_BUILD_DIR/default/perfbench/perfbench.exe"
work=$(mktemp -d "$root/.bench_work.XXXXXX")
trap 'rm -rf "$work"' EXIT
"$exe" gen "$@" --dir "$work"
"$exe" run "$@" --dir "$work"
