#!/usr/bin/env bash
# Build the benchmark and dbreakd from source, then run one workload:
#
#   bash perfbench/run.sh --workload debug-batch --seed 1 --seconds 10 --trace 0
#
# Run from the repository root.  Build output goes to .bench_build and
# run reports to perf-out/; the last line of stdout is the result.
set -eu
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --display quiet -j 2 \
  ./perfbench/perf.exe ./bin/dbreakd.exe >&2
exec .bench_build/default/perfbench/perf.exe run "$@"
